(* Chaos tests: the runtime protocols (SHIP, FETCH, name service)
   under an adversarial fabric — packet loss, duplication, reordering
   and partitions — must produce exactly the outputs of a fault-free
   run, and must fail gracefully (not hang) when a peer is truly dead.

   Everything is driven by the simulation PRNG, so each (program,
   seed) pair is a fixed, reproducible adversary: a passing seed
   passes forever. *)

open Dityco
module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats
module Metrics = Tyco_support.Metrics

let check = Alcotest.check
let ev_testable = Alcotest.testable Output.pp_event Output.equal_event

let chaos_faults =
  { Simnet.drop = 0.2; duplicate = 0.1; reorder = 0.3; reorder_ns = 50_000;
    partitions = [] }

let chaos_config ?(faults = chaos_faults) seed =
  { Cluster.default_config with Cluster.seed; faults; reliable = true }

let run ?config src = Api.run_program ?config (Api.parse src)
let events r = List.map snd r.Api.outputs

let chaos_programs =
  List.filter
    (fun (name, _) ->
      List.mem name [ "cell"; "rpc"; "applet-fetch"; "applet-ship" ])
    Test_runtime.paper_programs

let seeds = [ 7; 1234; 99991 ]

(* ------------------------------------------------------------------ *)
(* Reliability: chaos outputs = fault-free outputs                     *)

let chaos_preserves_outputs () =
  List.iter
    (fun (name, src) ->
      let clean = events (run src) in
      List.iter
        (fun seed ->
          let noisy = events (run ~config:(chaos_config seed) src) in
          if not (Output.same_multiset clean noisy) then
            Alcotest.failf "%s (seed %d): outputs differ under faults" name
              seed)
        seeds)
    chaos_programs

let chaos_is_deterministic () =
  let src = List.assoc "applet-ship" chaos_programs in
  let a = run ~config:(chaos_config 7) src in
  let b = run ~config:(chaos_config 7) src in
  check (Alcotest.list ev_testable) "same outputs" (events a) (events b);
  check Alcotest.int "same virtual time" a.Api.virtual_ns b.Api.virtual_ns;
  check Alcotest.int "same packets" a.Api.packets b.Api.packets

let chaos_exercises_fault_paths () =
  (* across the fixed seeds, the adversary must actually have bitten:
     drops happened, retransmissions recovered them, and the dedup
     window suppressed duplicated/retransmitted frames *)
  let total name =
    List.fold_left
      (fun acc seed ->
        let r =
          run ~config:(chaos_config seed)
            (List.assoc "applet-ship" chaos_programs)
        in
        acc + Stats.counter_value (Cluster.stats r.Api.cluster) name)
      0 seeds
  in
  check Alcotest.bool "drops > 0" true (total "drops" > 0);
  check Alcotest.bool "retries > 0" true (total "retries" > 0);
  check Alcotest.bool "dupes suppressed > 0" true
    (total "dupes_suppressed" > 0);
  check Alcotest.bool "acks > 0" true (total "acks" > 0)

let partition_heals () =
  (* a 2 ms cut between the client's node and the rest of the world is
     bridged by retransmission: same outputs as the clean run *)
  let src = List.assoc "rpc" chaos_programs in
  let clean = events (run src) in
  let faults =
    { Simnet.no_faults with
      Simnet.partitions =
        [ { Simnet.p_a = 0; p_b = 1; p_from = 0; p_until = 2_000_000 } ] }
  in
  let r = run ~config:(chaos_config ~faults 7) src in
  check Alcotest.bool "outputs survive the partition" true
    (Output.same_multiset clean (events r));
  check Alcotest.bool "after healing time" true
    (r.Api.virtual_ns >= 2_000_000)

(* ------------------------------------------------------------------ *)
(* Graceful failure: dead peers produce bounded, visible errors        *)

let fetch_from_dead_site_fails_fast () =
  (* the server registers its exported class and dies; the client's
     FETCH can never be answered.  The request deadline must abandon it
     within the retry horizon and say so, instead of hanging forever *)
  let src = List.assoc "applet-fetch" chaos_programs in
  let prog = Api.parse src in
  let cluster =
    Cluster.create ~config:(chaos_config ~faults:Simnet.no_faults 7) ()
  in
  Cluster.load cluster (Api.compile prog);
  Cluster.kill_site cluster "server" ~at:1;
  Cluster.run cluster;
  let outs = List.map snd (Cluster.outputs cluster) in
  check Alcotest.bool "fetch-failed reported" true
    (List.exists (fun e -> e.Output.label = "fetch-failed") outs);
  check Alcotest.bool "no applet output" false
    (List.exists (fun e -> e.Output.label = "printi") outs);
  check Alcotest.bool "server suspected" true
    (Cluster.suspected_failures cluster <> []);
  check Alcotest.bool "bounded virtual time" true
    (Cluster.virtual_time cluster < 1_000_000_000)

let unreliable_transport_loses () =
  (* without [reliable], a fully lossy fabric silently eats the RPC:
     the seed's fire-and-forget behaviour, now at least visible in the
     drop counter *)
  let src = List.assoc "rpc" chaos_programs in
  let faults = { Simnet.no_faults with Simnet.drop = 1.0 } in
  let config =
    { Cluster.default_config with Cluster.seed = 7; faults } in
  let r = run ~config src in
  check (Alcotest.list ev_testable) "no outputs" [] (events r);
  check Alcotest.bool "drops counted" true
    (Stats.counter_value (Cluster.stats r.Api.cluster) "drops" > 0)

let dead_letters_counted () =
  let cluster = Cluster.create () in
  let dst = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:99 ~ip:1 in
  let inject () =
    Cluster.inject_packet cluster ~src_ip:0
      (Packet.Pmsg { dst; label = "x"; args = [] })
  in
  inject ();
  Cluster.run cluster;
  check Alcotest.int "dead letter counted" 1 (Cluster.dead_letters cluster);
  check Alcotest.bool "phantom site recorded" true
    (List.exists
       (fun (_, who) -> who = "site#99")
       (Cluster.suspected_failures cluster));
  (* every further packet for the phantom is a dead letter, but the
     suspicion is recorded once *)
  for _ = 1 to 999 do
    inject ()
  done;
  Cluster.run cluster;
  check Alcotest.int "every dead letter counted" 1000
    (Cluster.dead_letters cluster);
  check Alcotest.int "phantom suspected once" 1
    (List.length
       (List.filter
          (fun (_, who) -> who = "site#99")
          (Cluster.suspected_failures cluster)))

(* ------------------------------------------------------------------ *)
(* Dedup window (Node.admit) unit behaviour                            *)

let dedup_window () =
  let n = Node.create ~node_id:0 ~ip:0 ~cores:1 in
  check Alcotest.bool "first seq 0" true (Node.admit n ~src_ip:1 ~seq:0);
  check Alcotest.bool "replay rejected" false (Node.admit n ~src_ip:1 ~seq:0);
  check Alcotest.bool "out of order admitted" true
    (Node.admit n ~src_ip:1 ~seq:2);
  check Alcotest.int "one buffered" 1 (Node.dedup_window_size n);
  check Alcotest.bool "gap filled" true (Node.admit n ~src_ip:1 ~seq:1);
  check Alcotest.int "window drained" 0 (Node.dedup_window_size n);
  check Alcotest.bool "below floor rejected" false
    (Node.admit n ~src_ip:1 ~seq:1);
  check Alcotest.bool "replay of reordered rejected" false
    (Node.admit n ~src_ip:1 ~seq:2);
  (* streams are per-peer: another source starts at its own floor *)
  check Alcotest.bool "independent peer" true (Node.admit n ~src_ip:2 ~seq:0)

(* ------------------------------------------------------------------ *)
(* Batched transport under chaos                                       *)

(* Every cross-node packet travels in a batch frame, so the chaos
   suite above already runs the batched path; these pin down the
   batching-specific semantics explicitly. *)

(* Cumulative-ack retransmission recovers batches under drop, dup and
   reorder, both at the default flush cap and at one packet per
   frame. *)
let batched_chaos_recovers () =
  let src = List.assoc "rpc" chaos_programs in
  let clean = events (run src) in
  List.iter
    (fun seed ->
      let batched = run ~config:(chaos_config seed) src in
      let single =
        run
          ~config:{ (chaos_config seed) with Cluster.flush_max_packets = 1 }
          src
      in
      check Alcotest.bool
        (Printf.sprintf "batched outputs intact (seed %d)" seed)
        true
        (Output.same_multiset clean (events batched));
      check Alcotest.bool
        (Printf.sprintf "one-packet frames: outputs intact (seed %d)" seed)
        true
        (Output.same_multiset clean (events single)))
    seeds;
  (* and the cumulative-ack machinery actually bit: losses recovered
     by batch retransmission, replays suppressed by the dedup window *)
  let total name =
    List.fold_left
      (fun acc seed ->
        let r = run ~config:(chaos_config seed) src in
        acc + Stats.counter_value (Cluster.stats r.Api.cluster) name)
      0 seeds
  in
  check Alcotest.bool "retries > 0" true (total "retries" > 0);
  check Alcotest.bool "dupes suppressed > 0" true
    (total "dupes_suppressed" > 0);
  check Alcotest.bool "acks > 0" true (total "acks" > 0)

(* A nonzero flush deadline delays flushes by virtual time; the run
   must stay bit-for-bit deterministic per seed, and the deadline must
   not change what the program computes. *)
let flush_deadline_deterministic () =
  let src = List.assoc "rpc" chaos_programs in
  let clean = events (run src) in
  List.iter
    (fun deadline ->
      let config seed =
        { (chaos_config seed) with Cluster.flush_deadline_ns = deadline }
      in
      let a = run ~config:(config 7) src in
      let b = run ~config:(config 7) src in
      check (Alcotest.list ev_testable)
        (Printf.sprintf "deadline %d: same outputs" deadline)
        (events a) (events b);
      check Alcotest.int
        (Printf.sprintf "deadline %d: same virtual time" deadline)
        a.Api.virtual_ns b.Api.virtual_ns;
      check Alcotest.int
        (Printf.sprintf "deadline %d: same packets" deadline)
        a.Api.packets b.Api.packets;
      check Alcotest.bool
        (Printf.sprintf "deadline %d: outputs intact" deadline)
        true
        (Output.same_multiset clean (events a)))
    [ 0; 5_000; 50_000 ]

(* Counting regression: with sites mixed across same-node and
   cross-node placement, every logical packet is counted exactly once —
   as a fabric packet or as a same-node delivery, never both, never
   twice — in every transport mode, and the registry a metrics export
   writes counts them the same way.  (The packet log of these traced
   runs records both kinds, so packets + same_node = log kept + log
   dropped.) *)
let mixed_placement_counting () =
  let src =
    {| site a { export new p
         def L(x) = p?(v) = (io!printi[v] | L[x]) in L[0] }
       site b { import p from a in p![1] }
       site c { import p from a in p![2] }
       site d { import p from a in p![3] } |}
  in
  (* a and b share node 0; c and d sit on nodes 1 and 2 *)
  let placement = function
    | "a" | "b" -> 0
    | "c" -> 1
    | _ -> 2
  in
  let clean =
    events (Api.run_program ~placement:(fun n -> placement n) (Api.parse src))
  in
  let traced = { Cluster.default_config with Cluster.tracing = true } in
  let packet_counts = ref [] in
  List.iter
    (fun (name, config) ->
      let r =
        Api.run_program ~config ~placement:(fun n -> placement n)
          (Api.parse src)
      in
      let cl = r.Api.cluster in
      let logged =
        List.length (Cluster.packet_trace cl)
        + Cluster.packet_trace_dropped cl
      in
      check Alcotest.int
        (Printf.sprintf "%s: packets + same_node = logged" name)
        logged
        (Cluster.packets_sent cl + Cluster.same_node_fast cl);
      let mx = Cluster.stats cl in
      check Alcotest.int
        (Printf.sprintf "%s: exported packets + same_node = logged" name)
        logged
        (Metrics.value mx "packets" + Metrics.value mx "same_node_fast");
      check Alcotest.bool (Printf.sprintf "%s: same_node > 0" name) true
        (Cluster.same_node_fast cl > 0);
      check Alcotest.bool (Printf.sprintf "%s: packets > 0" name) true
        (Cluster.packets_sent cl > 0);
      check Alcotest.bool (Printf.sprintf "%s: outputs intact" name) true
        (Output.same_multiset clean (events r));
      if config.Cluster.ns_mode = Cluster.Centralized then
        packet_counts := (name, Cluster.packets_sent cl) :: !packet_counts)
    [ ("unreliable", traced);
      ("reliable", { traced with Cluster.reliable = true });
      ("replicated NS", { traced with Cluster.ns_mode = Cluster.Replicated })
    ];
  (* the logical packet count is a property of the program and its
     name-service deployment, not of the transport mode: any
     disagreement means a mode double-counts *)
  match !packet_counts with
  | (_, n) :: rest ->
      List.iter
        (fun (name, m) ->
          check Alcotest.int
            (Printf.sprintf "%s: same logical packet count" name)
            n m)
        rest
  | [] -> ()

(* The replicated name service under reliable delivery: a registration
   copy for another replica takes the same retransmitted path as every
   other cross-node packet, so a lossy fabric cannot leave a lookup
   parked at a replica the copy never reached. *)
let replicated_ns_reliable () =
  let src = Test_runtime.importers_src in
  let central = events (run src) in
  let faults = { Simnet.no_faults with Simnet.drop = 0.3 } in
  for seed = 1 to 20 do
    let config =
      { Cluster.default_config with
        Cluster.seed; faults; reliable = true; ns_mode = Cluster.Replicated }
    in
    let r = run ~config src in
    if not (Output.same_multiset central (events r)) then
      Alcotest.failf "seed %d: outputs differ from the centralized run" seed;
    check Alcotest.int
      (Printf.sprintf "seed %d: no pending lookups" seed)
      0
      (Cluster.name_service_pending r.Api.cluster)
  done

(* An import of a name its site never exports: the lookup parks at the
   name service, and the client's deadline re-sends it until its tries
   run out.  Then the import fails as an output, the exporter's site is
   suspected, and no request is left outstanding.  (Type checking would
   reject the program, so it is off.) *)
let import_deadline () =
  let src =
    {| site server { export new p p?(x) = io!printi[x] }
       site client { import q from server in q![1] } |}
  in
  let config = { Cluster.default_config with Cluster.reliable = true } in
  let r = Api.run_program ~config ~typecheck:false (Api.parse src) in
  let cl = r.Api.cluster in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int ev_testable))
    "import-failed at the last deadline"
    [ ( 254_199_309,
        { Output.site = "client"; label = "import-failed";
          args = [ Output.Ostr "server.q" ] } ) ]
    r.Api.outputs;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "server suspected" [ (254_199_309, "server") ]
    (Cluster.suspected_failures cl);
  let client = Cluster.site cl "client" in
  check Alcotest.int "five retries" 5
    (Stats.counter_value (Site.stats client) "retries");
  check Alcotest.int "one timeout" 1
    (Stats.counter_value (Site.stats client) "timeouts");
  List.iter
    (fun s ->
      check Alcotest.int (Site.name s ^ ": nothing outstanding") 0
        (Site.outstanding s))
    (Cluster.sites cl)

(* A peer sending to 5,000 distinct unknown site ids: every packet is a
   dead letter, the suspect list stops at its cap, and the suspicions
   past it are counted. *)
let phantom_suspects_bounded () =
  let cluster = Cluster.create () in
  for site_id = 100 to 5_099 do
    let dst = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id ~ip:1 in
    Cluster.inject_packet cluster ~src_ip:0
      (Packet.Pmsg { dst; label = "x"; args = [] })
  done;
  Cluster.run cluster;
  check Alcotest.int "every dead letter counted" 5_000
    (Cluster.dead_letters cluster);
  check Alcotest.int "suspects listed up to the cap" Node.max_suspects
    (List.length (Cluster.suspected_failures cluster));
  check Alcotest.int "the rest counted" (5_000 - Node.max_suspects)
    (Stats.counter_value (Cluster.stats cluster) "suspects_unlisted")

let tests =
  [ ("chaos: outputs preserved (3 seeds)", `Quick, chaos_preserves_outputs);
    ("chaos: deterministic", `Quick, chaos_is_deterministic);
    ("chaos: fault paths exercised", `Quick, chaos_exercises_fault_paths);
    ("chaos: partition heals", `Quick, partition_heals);
    ("dead site: fetch fails fast", `Quick, fetch_from_dead_site_fails_fast);
    ("unreliable: drops lose packets", `Quick, unreliable_transport_loses);
    ("dead letters counted", `Quick, dead_letters_counted);
    ("dedup window", `Quick, dedup_window);
    ("batched chaos: cum-ack retransmit recovers", `Quick,
     batched_chaos_recovers);
    ("flush deadline: deterministic per seed", `Quick,
     flush_deadline_deterministic);
    ("mixed placement: packets counted once", `Quick,
     mixed_placement_counting);
    ("replicated NS: reliable under 30% drop", `Quick,
     replicated_ns_reliable);
    ("import deadline: gives up and suspects", `Quick, import_deadline);
    ("phantom suspects bounded", `Quick, phantom_suspects_bounded) ]
