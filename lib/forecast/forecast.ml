module R = Rat

type predictor = Last | Mean | Ewma of R.t | Sliding_median of int

let predictor_name = function
  | Last -> "last"
  | Mean -> "mean"
  | Ewma a -> Printf.sprintf "ewma(%s)" (R.to_string a)
  | Sliding_median w -> Printf.sprintf "median(%d)" w

type state = {
  spec : predictor;
  mutable error : R.t; (* cumulative absolute one-step error *)
  mutable sum : R.t; (* [Mean]'s *)
  mutable window : R.t list; (* [Sliding_median]'s, newest first, length <= w *)
  mutable guess : R.t option;
      (* what this predictor forecasts now, if it has data: computed once
         per observation, read by the next one's scoring and by
         [predict] *)
}

type t = { mutable count : int; states : state array }

let validate = function
  | Last | Mean -> ()
  | Ewma a ->
    if R.sign a <= 0 || R.compare a R.one > 0 then
      invalid_arg "Forecast: EWMA gain must be in (0, 1]"
  | Sliding_median w ->
    if w < 1 then invalid_arg "Forecast: median window must be >= 1"

let create ?(predictors = [ Last; Mean; Ewma (R.of_ints 1 4); Sliding_median 5 ]) () =
  if predictors = [] then invalid_arg "Forecast.create: empty battery";
  List.iter validate predictors;
  {
    count = 0;
    states =
      Array.of_list
        (List.map
           (fun spec ->
             { spec; error = R.zero; sum = R.zero; window = []; guess = None })
           predictors);
  }

let median l =
  let sorted = List.sort R.compare l in
  let n = List.length sorted in
  let a = List.nth sorted ((n - 1) / 2) and b = List.nth sorted (n / 2) in
  R.div_int (R.add a b) 2

let observe t x =
  let count = t.count + 1 in
  Array.iter
    (fun st ->
      (* score first *)
      (match st.guess with
      | Some f -> st.error <- R.add st.error (R.abs (R.sub x f))
      | None -> ());
      (* then update *)
      st.guess <-
        Some
          (match st.spec with
          | Last -> x
          | Mean ->
            st.sum <- R.add st.sum x;
            R.div_int st.sum count
          | Ewma a -> (
            match st.guess with
            | None -> x
            | Some prev -> R.add prev (R.mul a (R.sub x prev)))
          | Sliding_median w ->
            st.window <- x :: List.filteri (fun i _ -> i < w - 1) st.window;
            median st.window))
    t.states;
  t.count <- count

(* the first predictor with the lowest cumulative error *)
let best_state t =
  if t.count = 0 then invalid_arg "Forecast: no observations yet";
  let best = ref t.states.(0) in
  for k = 1 to Array.length t.states - 1 do
    if R.compare t.states.(k).error !best.error < 0 then best := t.states.(k)
  done;
  !best

let predict t =
  if t.count = 0 then R.one
  else match (best_state t).guess with Some f -> f | None -> R.one

let best_predictor t = (best_state t).spec

let cumulative_error t spec =
  match Array.find_opt (fun st -> st.spec = spec) t.states with
  | Some st -> st.error
  | None -> raise Not_found

let observations t = t.count
