(* Reference oracle for Lp's linear expressions: the semantics Lp had
   when an expression was a persistent map from variables to nonzero
   coefficients, every operation merging maps, and a model printed by
   walking those maps.  Lp now keeps an expression as a term tree and
   normalises it once into a sorted row; the tests require the same
   standard-form rows, the same Lp.pp text and the same values. *)

module R = Rat
module Imap = Map.Make (Int)

type t = R.t Imap.t

let zero = Imap.empty
let term c v = if R.is_zero c then Imap.empty else Imap.singleton v c
let var v = term R.one v

let add a b =
  Imap.union
    (fun _ x y ->
      let s = R.add x y in
      if R.is_zero s then None else Some s)
    a b

let scale k e =
  if R.is_zero k then Imap.empty else Imap.map (fun c -> R.mul k c) e

let neg e = scale R.minus_one e
let sub a b = add a (neg b)
let of_terms l = List.fold_left (fun acc (c, v) -> add acc (term c v)) zero l
let sum l = List.fold_left add zero l
let eval f e = Imap.fold (fun v c acc -> R.add acc (R.mul c (f v))) e R.zero

(* the columns and coefficients, ascending *)
let bindings = Imap.bindings

let pp_linexpr names ppf e =
  let first = ref true in
  Imap.iter
    (fun v c ->
      let s = R.sign c in
      if !first then begin
        first := false;
        if R.equal c R.one then Format.fprintf ppf "%s" names.(v)
        else if R.equal c R.minus_one then Format.fprintf ppf "-%s" names.(v)
        else Format.fprintf ppf "%a %s" R.pp c names.(v)
      end
      else if s >= 0 then
        if R.equal c R.one then Format.fprintf ppf " + %s" names.(v)
        else Format.fprintf ppf " + %a %s" R.pp c names.(v)
      else if R.equal c R.minus_one then Format.fprintf ppf " - %s" names.(v)
      else Format.fprintf ppf " - %a %s" R.pp (R.abs c) names.(v))
    e;
  if !first then Format.fprintf ppf "0"

(* The text Lp.pp printed for a model with these variables (name, upper
   bound), objective and constraints (name, expression, relation, rhs). *)
let pp ppf ~vars ~objective ~constraints =
  let names = Array.of_list (List.map fst vars) in
  (match objective with
  | None -> Format.fprintf ppf "(no objective)@."
  | Some (s, e) ->
    Format.fprintf ppf "%s %a@."
      (match s with Lp.Maximize -> "maximize" | Lp.Minimize -> "minimize")
      (pp_linexpr names) e);
  Format.fprintf ppf "subject to@.";
  List.iter
    (fun (name, e, rel, rhs) ->
      Format.fprintf ppf "  %s: %a %s %a@." name (pp_linexpr names) e
        (match rel with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=")
        R.pp rhs)
    constraints;
  Format.fprintf ppf "bounds@.";
  List.iter
    (fun (name, ub) ->
      Format.fprintf ppf "  0 <= %s <= %s@." name
        (match ub with None -> "+inf" | Some u -> R.to_string u))
    vars
