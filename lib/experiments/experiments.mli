(** The per-experiment reproduction index (see DESIGN.md).

    Every entry regenerates one figure, worked example or analytic claim
    of the paper as a table; [all] runs the full battery in order.  The
    same functions back the CLI ([steady-cli experiments]) and the
    bench harness, and their output is the source of EXPERIMENTS.md. *)

val e1_master_slave_lp : unit -> Exp_common.table
(** Figure 1 + §3.1: ntask(G) and activity variables on the Figure 1
    platform. *)

val e2_reconstruction : unit -> Exp_common.table
(** §4.1: periodic-schedule reconstruction for E1 — period, slot count
    (≤ \|E\| matchings), strict-simulation verdict. *)

val e3_asymptotic : unit -> Exp_common.table
(** §4.2: completed tasks within K periods vs the LP bound; the gap is
    constant in K. *)

val e4_scatter : unit -> Exp_common.table
(** §3.2: pipelined scatter throughput, reconstruction, simulation. *)

val e5_multicast_counterexample : unit -> Exp_common.table
(** Figures 2/3 + §4.3: max-LP bound 1, the per-target half-rate flows,
    the P3->P4 conflict, and the achievable bracket. *)

val e6_broadcast : unit -> Exp_common.table
(** §4.3: the broadcast max-LP bound is met by tree packing. *)

val e7_send_receive : unit -> Exp_common.table
(** §5.1.1: send-or-receive LP bound vs greedy reconstruction. *)

val e8_startup_costs : unit -> Exp_common.table
(** §5.2: T(n)/Topt(n) with the sqrt(n) grouping. *)

val e9_fixed_period : unit -> Exp_common.table
(** §5.4: throughput as a function of the fixed period length. *)

val e10_dynamic : unit -> Exp_common.table
(** §5.5: static vs reactive (NWS-forecast) vs oracle under load. *)

val e11_dag_collections : unit -> Exp_common.table
(** §4.2: steady-state throughput of DAG collections. *)

val e12_reduce : unit -> Exp_common.table
(** §4.2/[12]: gather and combining-reduce throughput. *)

val e14_topology : unit -> Exp_common.table
(** §5.3: probe-based cluster inference and model quality. *)

val e15_tree_crosscheck : unit -> Exp_common.table
(** [3,11]: bandwidth-centric closed form = LP on trees. *)

val e16_baselines : unit -> Exp_common.table
(** §1 motivation: steady state vs demand-driven and round-robin. *)

val e17_faults : unit -> Exp_common.table
(** §5.5 extended to fail-stop faults: Static vs Reactive vs Oracle vs
    Robust under seeded crash/outage/partition/cascade scenarios, with
    per-epoch LP bounds on the surviving subplatform and a strict-mode
    replay check that each surviving epoch's bound is exactly achieved.
    (E13 is the bench microbenchmark and E14 topology inference, so
    faults take the next free id.) *)

val all : unit -> Exp_common.table list
(** All of the above, in order (E13, the polynomial-scaling microbench,
    lives in bench/main.exe where timing belongs). *)
