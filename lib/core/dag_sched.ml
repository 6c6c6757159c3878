module R = Rat
module P = Platform

type task = { t_name : string; work : R.t; pin : P.node option }

type file = { f_name : string; producer : int; consumer : int; size : R.t }

type dag = { tasks : task array; files : file array }

let validate p dag =
  let nt = Array.length dag.tasks in
  if nt = 0 then invalid_arg "Dag_sched.validate: empty DAG";
  Array.iter
    (fun t ->
      if R.sign t.work < 0 then invalid_arg "Dag_sched.validate: negative work";
      match t.pin with
      | Some i ->
        if i < 0 || i >= P.num_nodes p then
          invalid_arg "Dag_sched.validate: pin out of range";
        if R.sign t.work > 0 && Ext_rat.is_inf (P.weight p i) then
          invalid_arg "Dag_sched.validate: pinned on a routing node"
      | None -> ())
    dag.tasks;
  Array.iter
    (fun f ->
      if f.producer < 0 || f.producer >= nt || f.consumer < 0
         || f.consumer >= nt || f.producer = f.consumer then
        invalid_arg "Dag_sched.validate: bad file endpoints";
      if R.sign f.size <= 0 then
        invalid_arg "Dag_sched.validate: non-positive file size")
    dag.files;
  (* acyclicity of the task graph *)
  let indeg = Array.make nt 0 in
  Array.iter (fun f -> indeg.(f.consumer) <- indeg.(f.consumer) + 1) dag.files;
  let q = Queue.create () in
  Array.iteri (fun t d -> if d = 0 then Queue.add t q) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let t = Queue.pop q in
    incr seen;
    Array.iter
      (fun f ->
        if f.producer = t then begin
          indeg.(f.consumer) <- indeg.(f.consumer) - 1;
          if indeg.(f.consumer) = 0 then Queue.add f.consumer q
        end)
      dag.files
  done;
  if !seen <> nt then invalid_arg "Dag_sched.validate: cyclic task graph"

type solution = {
  platform : P.t;
  dag : dag;
  throughput : R.t;
  cons : R.t array array;
  file_flows : R.t array array;
}

let solve p dag =
  validate p dag;
  let nt = Array.length dag.tasks in
  let nf = Array.length dag.files in
  let n = P.num_nodes p in
  let m = Lp.create () in
  let tp = Lp.add_var m "TP" in
  let cons_v =
    Array.init nt (fun t ->
        Array.init n (fun i ->
            Lp.add_var m (Printf.sprintf "cons_%s_%s" dag.tasks.(t).t_name (P.name p i))))
  in
  let flow_v =
    Array.init nf (fun f ->
        Array.init (P.num_edges p) (fun e ->
            Lp.add_var m
              (Printf.sprintf "flow_%s_%s" dag.files.(f).f_name (P.edge_name p e))))
  in
  (* pins and routing nodes *)
  Array.iteri
    (fun t task ->
      Array.iteri
        (fun i _ ->
          let forbidden =
            (match task.pin with Some j -> i <> j | None -> false)
            || (R.sign task.work > 0 && Ext_rat.is_inf (P.weight p i))
          in
          if forbidden then
            Lp.add_constraint m (Lp.var cons_v.(t).(i)) Lp.Eq R.zero)
        cons_v.(t))
    dag.tasks;
  (* CPU budget: sum_t cons(t,i) * work_t * w_i <= 1 *)
  List.iter
    (fun i ->
      match P.weight p i with
      | Ext_rat.Inf -> ()
      | Ext_rat.Fin w ->
        let terms =
          List.filter_map
            (fun t ->
              let coeff = R.mul dag.tasks.(t).work w in
              if R.sign coeff > 0 then Some (Lp.term coeff cons_v.(t).(i))
              else None)
            (List.init nt Fun.id)
        in
        if terms <> [] then
          Lp.add_constraint
            ~name:(Printf.sprintf "cpu_%s" (P.name p i))
            m (Lp.sum terms) Lp.Le R.one)
    (P.nodes p);
  (* ports: sum over files of flow * size * c <= 1 per direction *)
  let port_expr edges =
    Lp.sum
      (List.concat_map
         (fun e ->
           let c = P.edge_cost p e in
           List.map
             (fun f ->
               Lp.term (R.mul c dag.files.(f).size) flow_v.(f).(e))
             (List.init nf Fun.id))
         edges)
  in
  List.iter
    (fun i ->
      if P.out_edges p i <> [] && nf > 0 then
        Lp.add_constraint
          ~name:(Printf.sprintf "outport_%s" (P.name p i))
          m (port_expr (P.out_edges p i)) Lp.Le R.one;
      if P.in_edges p i <> [] && nf > 0 then
        Lp.add_constraint
          ~name:(Printf.sprintf "inport_%s" (P.name p i))
          m (port_expr (P.in_edges p i)) Lp.Le R.one)
    (P.nodes p);
  (* conservation per file at every node:
     inflow + cons(producer, i) = outflow + cons(consumer, i) *)
  Array.iteri
    (fun f file ->
      List.iter
        (fun i ->
          let inflow =
            List.map (fun e -> Lp.term R.one flow_v.(f).(e)) (P.in_edges p i)
          in
          let outflow =
            List.map
              (fun e -> Lp.term R.minus_one flow_v.(f).(e))
              (P.out_edges p i)
          in
          let produced = Lp.term R.one cons_v.(file.producer).(i) in
          let consumed = Lp.term R.minus_one cons_v.(file.consumer).(i) in
          Lp.add_constraint
            ~name:(Printf.sprintf "file_%s_%s" file.f_name (P.name p i))
            m
            (Lp.sum ((produced :: consumed :: inflow) @ outflow))
            Lp.Eq R.zero)
        (P.nodes p))
    dag.files;
  (* uniform instance rate *)
  Array.iteri
    (fun t _ ->
      let total =
        Lp.sum (List.init n (fun i -> Lp.term R.one cons_v.(t).(i)))
      in
      Lp.add_constraint
        ~name:(Printf.sprintf "rate_%s" dag.tasks.(t).t_name)
        m
        (Lp.sub total (Lp.var tp))
        Lp.Eq R.zero)
    dag.tasks;
  Lp.set_objective m Lp.Maximize (Lp.var tp);
  match Lp.solve m with
  | Lp.Infeasible | Lp.Unbounded ->
    failwith "Dag_sched.solve: LP not optimal (cannot happen)"
  | Lp.Optimal sol ->
    {
      platform = p;
      dag;
      throughput = sol.Lp.objective;
      cons = Array.map (Array.map (Lp.value sol)) cons_v;
      file_flows = Array.map (Array.map (Lp.value sol)) flow_v;
    }

let check_invariants sol =
  let p = sol.platform in
  let dag = sol.dag in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  let set_err e = if !result = Ok () then result := e in
  (* rates *)
  Array.iteri
    (fun t row ->
      let total = R.sum (Array.to_list row) in
      if not (R.equal total sol.throughput) then
        set_err (err "task %s rate %s <> TP" dag.tasks.(t).t_name (R.to_string total)))
    sol.cons;
  (* pins *)
  Array.iteri
    (fun t task ->
      match task.pin with
      | None -> ()
      | Some j ->
        Array.iteri
          (fun i v ->
            if i <> j && R.sign v <> 0 then
              set_err (err "task %s leaks off its pin" dag.tasks.(t).t_name))
          sol.cons.(t))
    dag.tasks;
  (* cpu *)
  List.iter
    (fun i ->
      match P.weight p i with
      | Ext_rat.Inf ->
        Array.iteri
          (fun t row ->
            if R.sign dag.tasks.(t).work > 0 && R.sign row.(i) > 0 then
              set_err (err "compute on routing node %s" (P.name p i)))
          sol.cons
      | Ext_rat.Fin w ->
        let load =
          R.sum
            (List.init (Array.length dag.tasks) (fun t ->
                 R.mul sol.cons.(t).(i) (R.mul dag.tasks.(t).work w)))
        in
        if R.Infix.(load > R.one) then
          set_err (err "cpu overload at %s" (P.name p i)))
    (P.nodes p);
  (* conservation *)
  Array.iteri
    (fun f file ->
      List.iter
        (fun i ->
          let inflow =
            R.sum (List.map (fun e -> sol.file_flows.(f).(e)) (P.in_edges p i))
          in
          let outflow =
            R.sum (List.map (fun e -> sol.file_flows.(f).(e)) (P.out_edges p i))
          in
          let lhs = R.add inflow sol.cons.(file.producer).(i) in
          let rhs = R.add outflow sol.cons.(file.consumer).(i) in
          if not (R.equal lhs rhs) then
            set_err (err "file %s unbalanced at %s" file.f_name (P.name p i)))
        (P.nodes p))
    dag.files;
  (* ports *)
  let nf = Array.length dag.files in
  List.iter
    (fun i ->
      let load edges =
        R.sum
          (List.concat_map
             (fun e ->
               List.init nf (fun f ->
                   R.mul sol.file_flows.(f).(e)
                     (R.mul dag.files.(f).size (P.edge_cost p e))))
             edges)
      in
      if R.Infix.(load (P.out_edges p i) > R.one) then
        set_err (err "out-port overload at %s" (P.name p i));
      if R.Infix.(load (P.in_edges p i) > R.one) then
        set_err (err "in-port overload at %s" (P.name p i)))
    (P.nodes p);
  !result

let master_slave_dag ~master =
  {
    tasks =
      [|
        { t_name = "gen"; work = R.zero; pin = Some master };
        { t_name = "compute"; work = R.one; pin = None };
      |];
    files = [| { f_name = "taskfile"; producer = 0; consumer = 1; size = R.one } |];
  }

let pipeline_dag ?(file_size = R.one) ~master ~stages () =
  let k = List.length stages in
  let tasks =
    Array.of_list
      ({ t_name = "src"; work = R.zero; pin = Some master }
      :: List.mapi
           (fun i w -> { t_name = Printf.sprintf "stage%d" i; work = w; pin = None })
           stages)
  in
  let files =
    Array.init k (fun i ->
        {
          f_name = Printf.sprintf "f%d" i;
          producer = i;
          consumer = i + 1;
          size = file_size;
        })
  in
  { tasks; files }

let fork_join_dag ?(file_size = R.one) ~master ~branches () =
  let k = List.length branches in
  let tasks =
    Array.of_list
      (({ t_name = "src"; work = R.zero; pin = Some master }
       :: List.mapi
            (fun i w ->
              { t_name = Printf.sprintf "branch%d" i; work = w; pin = None })
            branches)
      @ [ { t_name = "join"; work = R.zero; pin = Some master } ])
  in
  let files =
    Array.init (2 * k) (fun j ->
        if j < k then
          { f_name = Printf.sprintf "out%d" j; producer = 0; consumer = j + 1; size = file_size }
        else begin
          let i = j - k in
          { f_name = Printf.sprintf "in%d" i; producer = i + 1; consumer = k + 1; size = file_size }
        end)
  in
  { tasks; files }

let grid_dag ?(work = R.one) ?(file_size = R.one) ~master ~rows ~cols () =
  if rows < 1 || cols < 1 then
    invalid_arg "Dag_sched.grid_dag: need rows, cols >= 1";
  (* task 0 is the pinned source; grid task (i, j) is 1 + i*cols + j *)
  let idx i j = 1 + (i * cols) + j in
  let tasks =
    Array.init
      ((rows * cols) + 1)
      (fun t ->
        if t = 0 then { t_name = "src"; work = R.zero; pin = Some master }
        else
          {
            t_name = Printf.sprintf "g%d_%d" ((t - 1) / cols) ((t - 1) mod cols);
            work;
            pin = None;
          })
  in
  let files = ref [] in
  (* the source feeds the top-left corner *)
  files :=
    { f_name = "seed"; producer = 0; consumer = idx 0 0; size = file_size }
    :: !files;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if i + 1 < rows then
        files :=
          {
            f_name = Printf.sprintf "v%d_%d" i j;
            producer = idx i j;
            consumer = idx (i + 1) j;
            size = file_size;
          }
          :: !files;
      if j + 1 < cols then
        files :=
          {
            f_name = Printf.sprintf "h%d_%d" i j;
            producer = idx i j;
            consumer = idx i (j + 1);
            size = file_size;
          }
          :: !files
    done
  done;
  { tasks; files = Array.of_list (List.rev !files) }
