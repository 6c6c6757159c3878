module R = Rat
module P = Platform

type mode = Sum | Max

type solution = {
  platform : P.t;
  pairs : (P.node * P.node) list;
  mode : mode;
  throughput : R.t;
  flows : R.t array array;
  send_frac : R.t array;
}

let message_size = R.one

(* Every entry point checks its commodities here, naming itself. *)
let validate fn p pairs =
  if pairs = [] then invalid_arg (fn ^ ": no targets");
  let n = P.num_nodes p in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (s, t) ->
      if s < 0 || s >= n then invalid_arg (fn ^ ": source out of range");
      if t < 0 || t >= n then invalid_arg (fn ^ ": target out of range");
      if t = s then invalid_arg (fn ^ ": source is a target");
      if Hashtbl.mem seen (s, t) then invalid_arg (fn ^ ": duplicate target");
      Hashtbl.replace seen (s, t) ())
    pairs

let pairs_of ~source ~targets = List.map (fun t -> (source, t)) targets

(* The LP shared by solve and the kernel-equality tests, one commodity
   per (source, target) pair: returns the model plus the handles needed
   to read a solution back. *)
let build mode p pairs =
  let pair = Array.of_list pairs in
  let nk = Array.length pair in
  let m = Lp.create () in
  let tp = Lp.add_var m "TP" in
  let unit_iv = Some R.one in
  let s_v =
    Array.init (P.num_edges p) (fun e ->
        Lp.add_var ~ub:unit_iv m (Printf.sprintf "s_%s" (P.edge_name p e)))
  in
  let f_v =
    Array.init nk (fun k ->
        Array.init (P.num_edges p) (fun e ->
            Lp.add_var m
              (Printf.sprintf "f%d_%s" k (P.edge_name p e))))
  in
  (* mode law linking s and f *)
  (match mode with
  | Sum ->
    Array.iteri
      (fun e sv ->
        let c = P.edge_cost p e in
        let total =
          Lp.sum (List.init nk (fun k -> Lp.term c f_v.(k).(e)))
        in
        Lp.add_constraint
          ~name:(Printf.sprintf "sumlaw_%s" (P.edge_name p e))
          m
          (Lp.sub (Lp.var sv) total)
          Lp.Eq R.zero)
      s_v
  | Max ->
    Array.iteri
      (fun e sv ->
        let c = P.edge_cost p e in
        for k = 0 to nk - 1 do
          Lp.add_constraint
            ~name:(Printf.sprintf "maxlaw%d_%s" k (P.edge_name p e))
            m
            (Lp.sub (Lp.var sv) (Lp.term c f_v.(k).(e)))
            Lp.Ge R.zero
        done)
      s_v);
  (* one-port *)
  List.iter
    (fun i ->
      let outs = P.out_edges p i and ins = P.in_edges p i in
      if outs <> [] then
        Lp.add_constraint
          ~name:(Printf.sprintf "outport_%s" (P.name p i))
          m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) outs))
          Lp.Le R.one;
      if ins <> [] then
        Lp.add_constraint
          ~name:(Printf.sprintf "inport_%s" (P.name p i))
          m
          (Lp.sum (List.map (fun e -> Lp.var s_v.(e)) ins))
          Lp.Le R.one)
    (P.nodes p);
  (* hygiene: nothing flows back into a commodity's source; targets do
     not re-emit their own messages (both are pure waste, forbidding
     them loses no throughput and keeps flows clean for
     reconstruction) *)
  Array.iteri
    (fun k (source, target) ->
      List.iter
        (fun e ->
          Lp.add_constraint m (Lp.var f_v.(k).(e)) Lp.Eq R.zero)
        (P.in_edges p source);
      List.iter
        (fun e ->
          Lp.add_constraint m (Lp.var f_v.(k).(e)) Lp.Eq R.zero)
        (P.out_edges p target))
    pair;
  (* conservation per commodity at relay nodes; sink law at targets *)
  Array.iteri
    (fun k (source, target) ->
      List.iter
        (fun i ->
          if i = source then ()
          else if i = target then begin
            let inflow =
              Lp.sum
                (List.map (fun e -> Lp.var f_v.(k).(e)) (P.in_edges p i))
            in
            Lp.add_constraint
              ~name:(Printf.sprintf "sink%d" k)
              m
              (Lp.sub inflow (Lp.var tp))
              Lp.Eq R.zero
          end
          else begin
            let inflow =
              List.map (fun e -> Lp.term R.one f_v.(k).(e)) (P.in_edges p i)
            in
            let outflow =
              List.map
                (fun e -> Lp.term R.minus_one f_v.(k).(e))
                (P.out_edges p i)
            in
            Lp.add_constraint
              ~name:(Printf.sprintf "conserve%d_%s" k (P.name p i))
              m
              (Lp.sum (inflow @ outflow))
              Lp.Eq R.zero
          end)
        (P.nodes p))
    pair;
  Lp.set_objective m Lp.Maximize (Lp.var tp);
  (m, tp, s_v, f_v)

let model mode p ~source ~targets =
  let pairs = pairs_of ~source ~targets in
  validate "Collective.model" p pairs;
  let m, _, _, _ = build mode p pairs in
  m

let model_handles mode p ~pairs =
  validate "Collective.model_handles" p pairs;
  build mode p pairs

(* busy fraction per edge under the mode law, from cleaned flows *)
let send_frac_of mode p nk flows =
  Array.init (P.num_edges p) (fun e ->
      let c = P.edge_cost p e in
      match mode with
      | Sum -> R.mul c (R.sum (List.init nk (fun k -> flows.(k).(e))))
      | Max ->
        R.mul c
          (List.fold_left
             (fun acc k -> R.max acc flows.(k).(e))
             R.zero
             (List.init nk Fun.id)))

let solution_of_flows mode p pairs throughput flows =
  {
    platform = p;
    pairs;
    mode;
    throughput;
    flows;
    send_frac = send_frac_of mode p (Array.length flows) flows;
  }

let solution_of_lp mode p pairs f_v (sol : Lp.solution) =
  solution_of_flows mode p pairs sol.Lp.objective
    (Array.map
       (fun fv -> Flow.cancel_cycles p (Array.map sol.Lp.values fv))
       f_v)

(* --- the tree closed form ------------------------------------------------

   On a tree platform the multi-commodity LP has a closed form.
   Commodity (s, t) must cross every tree link that separates s from t,
   in the direction from s's side to t's (a cut argument: the net flow
   across the link is at least TP, and reverse flow is nonnegative, so
   the forward flow is too), and the tree route achieves exactly that:
   up the upward lanes from s to the meeting node, then down the
   downward lanes to t.  With m_e commodities routed through directed
   lane e, its multiplicity is

     n_e = m_e             under Sum      (distinct messages)
     n_e = [m_e > 0]       under Max      (copies share the wire)

   so every feasible solution has busy fraction s_e >= c_e * n_e * TP,
   and each port sums its lanes.  Hence

     TP <= min( per loaded lane   1 / (c_e * n_e),
                per out-port      1 / sum_out c_e * n_e,
                per in-port       1 / sum_in  c_e * n_e )

   and routing TP along every route meets the bound with equality —
   the LP optimum, reproduced without a pivot.  For one source at the
   root every route runs down from it and n_e counts the targets below
   e; for all ordered pairs of a participant set each lane carries
   inP(v) * (nP - inP(v)) commodities, with inP(v) participants below
   it.  The test-suite certifies the claim by replaying the routed
   flows through Lp.check_solution on the monolithic model.

   An unreached endpoint forces TP = 0 (its sink law is unsatisfiable
   at any positive rate), and so does a loaded upward lane the platform
   lacks (the tree link is the only connection between the two
   sides). *)

let zero_solution mode p pairs =
  let ne = P.num_edges p in
  {
    platform = p;
    pairs;
    mode;
    throughput = R.zero;
    flows = Array.of_list (List.map (fun _ -> Array.make ne R.zero) pairs);
    send_frac = Array.make ne R.zero;
  }

let solve_tree mode p pairs td =
  let reached v = td.Tree_decomp.reached.(v) in
  if List.exists (fun (s, t) -> not (reached s && reached t)) pairs then
    zero_solution mode p pairs
  else begin
    let parent_edge = td.Tree_decomp.parent_edge in
    let depth = Array.make (P.num_nodes p) 0 in
    Array.iter
      (fun v ->
        let e = parent_edge.(v) in
        if e >= 0 then depth.(v) <- depth.(P.edge_src p e) + 1)
      td.Tree_decomp.order;
    (* only routes that climb need the upward lanes *)
    let up = lazy (Tree_decomp.up_edges p td) in
    (* the tree route of (s, t), lane by lane; -1 is a missing upward
       lane *)
    let walk (s, t) visit =
      let climb v =
        visit (Lazy.force up).(v);
        Tree_decomp.parent p td v
      in
      let descend v =
        visit parent_edge.(v);
        Tree_decomp.parent p td v
      in
      let a = ref s and b = ref t in
      while depth.(!a) > depth.(!b) do a := climb !a done;
      while depth.(!b) > depth.(!a) do b := descend !b done;
      while !a <> !b do
        a := climb !a;
        b := descend !b
      done
    in
    let ne = P.num_edges p in
    let routed = Array.make ne 0 in
    let missing = ref false in
    List.iter
      (fun pr ->
        walk pr (fun e ->
            if e < 0 then missing := true else routed.(e) <- routed.(e) + 1))
      pairs;
    if !missing then zero_solution mode p pairs
    else begin
      let load =
        Array.init ne (fun e ->
            if routed.(e) = 0 then R.zero
            else
              match mode with
              | Sum -> R.mul (P.edge_cost p e) (R.of_int routed.(e))
              | Max -> P.edge_cost p e)
      in
      let tp = ref None in
      let consider x =
        if R.sign x > 0 then begin
          let bound = R.inv x in
          match !tp with
          | Some y when R.compare y bound <= 0 -> ()
          | _ -> tp := Some bound
        end
      in
      Array.iter consider load;
      let port es = R.sum (List.map (fun e -> load.(e)) es) in
      List.iter
        (fun i ->
          consider (port (P.out_edges p i));
          consider (port (P.in_edges p i)))
        (P.nodes p);
      let tp =
        match !tp with
        | Some x -> x
        | None -> assert false (* every route loads >= 1 lane *)
      in
      let flows =
        List.map
          (fun pr ->
            let f = Array.make ne R.zero in
            walk pr (fun e -> f.(e) <- tp);
            f)
          pairs
      in
      (* each loaded lane carries TP per routed commodity: the mode law
         of the routed flows is the lane load times TP *)
      {
        platform = p;
        pairs;
        mode;
        throughput = tp;
        flows = Array.of_list flows;
        send_frac = Array.map (fun l -> R.mul l tp) load;
      }
    end
  end

let solve_pairs_unchecked ?cache mode p pairs =
  match Tree_decomp.detect p ~root:(fst (List.hd pairs)) with
  | Some td -> solve_tree mode p pairs td
  | None -> (
    let m, _tp, _s_v, f_v = build mode p pairs in
    match Lp.solve ?cache m with
    | Lp.Infeasible | Lp.Unbounded ->
      failwith "Collective.solve: LP not optimal (cannot happen)"
    | Lp.Optimal sol -> solution_of_lp mode p pairs f_v sol)

let solve ?cache mode p ~source ~targets =
  let pairs = pairs_of ~source ~targets in
  validate "Collective.solve" p pairs;
  solve_pairs_unchecked ?cache mode p pairs

let solve_pairs mode p ~pairs =
  validate "Collective.solve_pairs" p pairs;
  solve_pairs_unchecked mode p pairs

let check_invariants sol =
  let p = sol.platform in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let nk = Array.length sol.flows in
  let result = ref (Ok ()) in
  let set_err e = if !result = Ok () then result := e in
  (* conservation and sinks *)
  List.iteri
    (fun k (source, target) ->
      List.iter
        (fun i ->
          let b = Flow.balance p sol.flows.(k) i in
          if i = source then begin
            if R.sign b > 0 then set_err (err "source absorbs commodity %d" k)
          end
          else if i = target then begin
            if not (R.equal b sol.throughput) then
              set_err
                (err "target %d receives %s, expected %s" k (R.to_string b)
                   (R.to_string sol.throughput))
          end
          else if not (R.is_zero b) then
            set_err (err "commodity %d unbalanced at %s" k (P.name p i)))
        (P.nodes p))
    sol.pairs;
  (* mode law *)
  List.iter
    (fun e ->
      let c = P.edge_cost p e in
      let lhs = sol.send_frac.(e) in
      let ok =
        match sol.mode with
        | Sum ->
          R.equal lhs
            (R.mul c (R.sum (List.init nk (fun k -> sol.flows.(k).(e)))))
        | Max ->
          List.for_all
            (fun k -> R.Infix.(lhs >= R.mul c sol.flows.(k).(e)))
            (List.init nk Fun.id)
      in
      if not ok then set_err (err "mode law broken on %s" (P.edge_name p e)))
    (P.edges p);
  (* ports *)
  List.iter
    (fun i ->
      let load es =
        R.sum (List.map (fun e -> sol.send_frac.(e)) es)
      in
      if R.Infix.(load (P.out_edges p i) > R.one) then
        set_err (err "out-port overload at %s" (P.name p i));
      if R.Infix.(load (P.in_edges p i) > R.one) then
        set_err (err "in-port overload at %s" (P.name p i)))
    (P.nodes p);
  !result
