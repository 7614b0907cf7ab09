(* The multi-domain engine (Par_runner) against the deterministic
   scheduler.

   Three contracts from DESIGN.md §12:
   - [--domains 1] is the deterministic single-domain scheduler,
     bit-identical to a plain run (timestamps included) — pinned here;
   - [--domains N] (N > 1) preserves output {e multisets} but not
     timestamps (domain interleaving);
   - no shared mutable state crosses domains outside the SPSC rings
     and the end-of-run merge — observable as [clean = true] with
     [ring_pushed = ring_popped] and per-shard site ownership by the
     placement map ([ip mod domains] under the default [Mod] policy;
     [Greedy] sweeps pinned below).

   TYCO_TEST_DOMAINS=N overrides the domain counts the equivalence
   tests sweep (CI runs the suite a second time with it set to 4). *)

open Dityco
module Spsc = Tyco_support.Spsc_ring

let check = Alcotest.check

let domain_counts =
  match Sys.getenv_opt "TYCO_TEST_DOMAINS" with
  | Some s -> [ int_of_string s ]
  | None -> [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Spsc_ring                                                           *)

let ring_fifo () =
  let r = Spsc.create ~capacity:8 in
  for i = 1 to 5 do
    check Alcotest.bool "push" true (Spsc.try_push r i)
  done;
  check Alcotest.int "length" 5 (Spsc.length r);
  for i = 1 to 5 do
    check Alcotest.(option int) "fifo" (Some i) (Spsc.try_pop r)
  done;
  check Alcotest.(option int) "empty" None (Spsc.try_pop r);
  check Alcotest.bool "is_empty" true (Spsc.is_empty r)

let ring_bounded () =
  let r = Spsc.create ~capacity:4 in
  for i = 1 to 4 do
    check Alcotest.bool "fills" true (Spsc.try_push r i)
  done;
  check Alcotest.bool "full rejects" false (Spsc.try_push r 5);
  check Alcotest.(option int) "pop" (Some 1) (Spsc.try_pop r);
  check Alcotest.bool "slot freed" true (Spsc.try_push r 5)

let ring_wraparound () =
  (* capacity rounds up to a power of two; drive several times around *)
  let r = Spsc.create ~capacity:3 in
  check Alcotest.int "rounded capacity" 4 (Spsc.capacity r);
  for round = 0 to 9 do
    for i = 0 to 2 do
      check Alcotest.bool "push" true (Spsc.try_push r ((round * 3) + i))
    done;
    for i = 0 to 2 do
      check Alcotest.(option int) "pop" (Some ((round * 3) + i))
        (Spsc.try_pop r)
    done
  done;
  check Alcotest.int "pushed" 30 (Spsc.pushed r);
  check Alcotest.int "popped" 30 (Spsc.popped r)

let ring_two_domains () =
  (* one producer domain, one consumer domain, 10k items through a
     16-slot ring: everything arrives, in order *)
  let n = 10_000 in
  let r = Spsc.create ~capacity:16 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Spsc.try_push r i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let received = ref 0 in
  let ordered = ref true in
  while !received < n do
    match Spsc.try_pop r with
    | Some v ->
        if v <> !received + 1 then ordered := false;
        received := v
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "in order" true !ordered;
  check Alcotest.bool "drained" true (Spsc.is_empty r)

(* ------------------------------------------------------------------ *)
(* Engine equivalence                                                  *)

(* Multi-site programs with deterministic output multisets; the
   placement spreads sites so every domain count exercises handoffs. *)
let corpus =
  [ ( "rpc",
      {| site server {
           def Serve(svc) = svc?{ add(a, b, k) = (k![a + b] | Serve[svc]) }
           in export new svc Serve[svc] }
         site c1 { import svc from server in
                   new k (svc!add[1, 2, k] | k?(v) = io!printi[v]) }
         site c2 { import svc from server in
                   new k (svc!add[10, 20, k] | k?(v) = io!printi[v]) }
         site c3 { import svc from server in
                   new k (svc!add[100, 200, k] | k?(v) = io!printi[v]) } |} );
    ( "pipeline",
      {| site a { import mid from b in export new left
           def L() = left?(v) = (mid![v * 2] | L[])
           in L[] }
         site b { import right from c in export new mid
           def M() = mid?(v) = (right![v + 1] | M[])
           in M[] }
         site c { export new right
           def R() = right?(v) = (io!printi[v] | R[])
           in R[] }
         site feeder { import left from a in
                       (left![1] | left![2] | left![3]) } |} );
    ( "fanout",
      {| site hub {
           def Pool(self, left) =
             self?{ take(k) = (if left == 0 then (k!stop[] | Pool[self, left])
                               else (k!item[left] | Pool[self, left - 1])) }
           in export new pool Pool[pool, 12] }
         site w0 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[0] })
           in Work[] }
         site w1 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[1] })
           in Work[] }
         site w2 { import pool from hub in
           def Work() = new k (pool!take[k]
             | k?{ item(v) = Work[], stop() = io!printi[2] })
           in Work[] } |} ) ]

let placement_spread name =
  (* fixed placement spreading each program's sites over nodes 0-3, so
     every domain count in [domain_counts] sees cross-shard traffic *)
  match name with
  | "hub" | "server" | "a" -> 0
  | "w0" | "c1" | "b" -> 1
  | "w1" | "c2" | "c" -> 2
  | "w2" | "c3" | "feeder" -> 3
  | other -> Hashtbl.hash other mod 8

let config = { Cluster.default_config with Cluster.nodes = 8 }

let event_multiset outputs =
  List.sort compare
    (List.map (fun (_ts, e) -> Format.asprintf "%a" Output.pp_event e) outputs)

let site_names sites = List.sort compare (List.map Site.name sites)

let domains1_bit_identical () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det =
        Api.run_program ~config ~placement:placement_spread prog
      in
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:1 prog
      in
      if det.Api.outputs <> par.Par_runner.outputs then
        Alcotest.failf "%s: --domains 1 diverged from the plain run" name;
      check Alcotest.int
        (name ^ " virtual time identical")
        det.Api.virtual_ns (Report.of_parallel par).Report.virtual_ns)
    corpus

let multiset_equivalence () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det =
        Api.run_program ~config ~placement:placement_spread prog
      in
      let reference = event_multiset det.Api.outputs in
      List.iter
        (fun d ->
          let par =
            Api.run_parallel ~config ~placement:placement_spread ~domains:d
              prog
          in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s at %d domains" name d)
            reference
            (event_multiset par.Par_runner.outputs);
          if par.Par_runner.timed_out then
            Alcotest.failf "%s: timed out at %d domains" name d)
        domain_counts)
    corpus

let shipped_samples_equivalence () =
  (* the examples corpus, minus seti.tyco (perpetual: it exhausts any
     event budget by design, on either engine) *)
  List.iter
    (fun (f, path, src) ->
      let prog = Api.parse ~file:path src in
      let det = Api.run_program prog in
      let reference = event_multiset det.Api.outputs in
      List.iter
        (fun d ->
          let par = Api.run_parallel ~domains:d prog in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s at %d domains" f d)
            reference
            (event_multiset par.Par_runner.outputs))
        domain_counts)
    (Samples.programs ~except:[ "seti.tyco" ] ())

(* ------------------------------------------------------------------ *)
(* Placement maps                                                      *)

let placement_map_properties () =
  let check_map ~domains ~label map nnodes =
    check Alcotest.int (label ^ ": total") nnodes (Array.length map);
    Array.iteri
      (fun i s ->
        if s < 0 || s >= domains then
          Alcotest.failf "%s: node %d mapped to shard %d (domains=%d)" label
            i s domains)
      map;
    if nnodes > 0 then
      check Alcotest.int (label ^ ": node 0 pinned to shard 0") 0 map.(0)
  in
  (* every policy, across nodes < domains, = domains, >> domains *)
  List.iter
    (fun (nnodes, domains) ->
      let site_counts = Array.init nnodes (fun i -> 1 + (i * 7 mod 5)) in
      List.iter
        (fun (pname, policy) ->
          let label = Printf.sprintf "%s n=%d d=%d" pname nnodes domains in
          let map = Placement.assign ~domains ~site_counts policy in
          check_map ~domains ~label map nnodes;
          (* deterministic: same inputs, same map *)
          check
            Alcotest.(array int)
            (label ^ ": deterministic") map
            (Placement.assign ~domains ~site_counts policy))
        [ ("mod", Placement.Mod); ("greedy", Placement.Greedy) ])
    [ (2, 8); (4, 4); (8, 4); (32, 4); (64, 2) ];
  (* greedy actually balances a skew that mod packs badly: heavy nodes
     0 and 4 collide at ip mod 4 *)
  let site_counts = [| 12; 3; 2; 2; 6; 2; 1; 4 |] in
  let weights = Array.map float_of_int site_counts in
  let imb policy =
    let map = Placement.assign ~domains:4 ~site_counts policy in
    Placement.imbalance (Placement.shard_weights ~domains:4 ~map weights)
  in
  if imb Placement.Greedy >= imb Placement.Mod then
    Alcotest.failf "greedy imbalance %.3f not below mod %.3f"
      (imb Placement.Greedy) (imb Placement.Mod);
  match Placement.assign ~domains:0 ~site_counts:[| 1 |] Placement.Mod with
  | _ -> Alcotest.fail "domains=0 accepted"
  | exception Invalid_argument _ -> ()

(* Output-multiset equivalence under the load-aware policy, across
   node counts below, equal to, and far above the domain count. *)
let policy_equivalence () =
  List.iter
    (fun (shape, nnodes, ds) ->
      let config = { Cluster.default_config with Cluster.nodes = nnodes } in
      let spread name =
        (* reuse the 0-3 spread, scaled into [0, nnodes): distinct
           sites stay on distinct nodes whenever nnodes >= 4 *)
        placement_spread name * max 1 (nnodes / 4) mod nnodes
      in
      List.iter
        (fun (name, src) ->
          let prog = Api.parse src in
          let det = Api.run_program ~config ~placement:spread prog in
          let reference = event_multiset det.Api.outputs in
          List.iter
            (fun d ->
              List.iter
                (fun (pname, policy) ->
                  let par =
                    Api.run_parallel ~config ~placement:spread ~policy
                      ~domains:d prog
                  in
                  let label =
                    Printf.sprintf "%s %s %s at %d domains" name shape pname d
                  in
                  check
                    Alcotest.(list string)
                    label reference
                    (event_multiset par.Par_runner.outputs);
                  if par.Par_runner.timed_out then
                    Alcotest.failf "%s: timed out" label;
                  check Alcotest.bool (label ^ " clean") true
                    par.Par_runner.clean)
                [ ("greedy", Placement.Greedy) ])
            ds)
        corpus)
    [ ("nodes=8", 8, [ 2; 4; 8 ]);
      ("nodes<domains", 3, [ 4; 8 ]);
      ("nodes>>domains", 32, [ 2; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* Sharding invariants                                                 *)

let sharding_smoke () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let d = 4 in
  let par =
    Api.run_parallel ~config ~placement:placement_spread ~domains:d prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  check Alcotest.bool "not timed out" false par.Par_runner.timed_out;
  check Alcotest.int "rings fully drained" par.Par_runner.ring_pushed
    par.Par_runner.ring_popped;
  let sites_per_shard =
    Array.map (fun s -> s.Par_runner.ss_sites) par.Par_runner.shard_stats
  in
  check Alcotest.int "every shard accounted" d (Array.length sites_per_shard);
  (* every site lives on the shard its node ip maps to: the per-shard
     totals must agree with recomputing ip mod d over the placement *)
  let expected = Array.make d 0 in
  List.iter
    (fun name ->
      let ip = placement_spread name in
      expected.(ip mod d) <- expected.(ip mod d) + 1)
    [ "hub"; "w0"; "w1"; "w2" ];
  check
    Alcotest.(array int)
    "sites confined by ip mod domains" expected sites_per_shard;
  check Alcotest.bool "cross-shard traffic happened" true
    (par.Par_runner.handoffs > 0)

(* Observability merge: shard stats account for the whole run, the
   report's registry ({!Report.of_parallel}) merges every shard's
   registry and the engine's ring and park counts, and the snapshot
   hook fires from the coordinator (interval 0 = every poll). *)
let shard_stats_and_metrics () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let d = 4 in
  let snapshots = ref [] in
  let par =
    Api.run_parallel ~config ~placement:placement_spread ~domains:d
      ~on_snapshot:(fun s -> snapshots := s :: !snapshots)
      ~snapshot_every_ms:0 prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  let rep = Report.of_parallel par in
  let st = par.Par_runner.shard_stats in
  check Alcotest.int "one stat per shard" d (Array.length st);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  let shard_counts name =
    sum (fun s -> Tyco_support.Stats.counter_value s.Par_runner.ss_stats name)
  in
  check Alcotest.int "events accounted" rep.Report.sim_events
    (sum (fun s -> s.Par_runner.ss_events));
  check Alcotest.int "packets accounted" rep.Report.packets
    (shard_counts "packets");
  check Alcotest.int "ring pushes accounted" par.Par_runner.ring_pushed
    (sum (fun s -> s.Par_runner.ss_ring_pushed));
  check Alcotest.int "ring pops accounted" par.Par_runner.ring_popped
    (sum (fun s -> s.Par_runner.ss_ring_popped));
  check Alcotest.int "parks accounted" par.Par_runner.parks
    (sum (fun s -> s.Par_runner.ss_parks));
  check Alcotest.bool "hiwater seen on some shard" true
    (Array.exists (fun s -> s.Par_runner.ss_ring_hiwater > 0) st);
  (* the merged registry agrees with the summed shard stats *)
  let mx = rep.Report.stats in
  let value = Tyco_support.Metrics.value mx in
  check Alcotest.int "merged packets counter" (shard_counts "packets")
    (value "packets");
  check Alcotest.int "merged bytes counter" (shard_counts "bytes")
    (value "bytes");
  check Alcotest.int "report bytes from the registry" (value "bytes")
    rep.Report.bytes;
  check Alcotest.int "merged handoffs counter" par.Par_runner.handoffs
    (value "handoffs_in");
  check Alcotest.int "one handoff latency per handoff"
    par.Par_runner.handoffs
    (Tyco_support.Stats.Dist.count
       (Tyco_support.Stats.dist mx "handoff_lat_ns"));
  check Alcotest.int "merged parks counter" par.Par_runner.parks
    (value "parks");
  check Alcotest.int "merged ring pushes" par.Par_runner.ring_pushed
    (value "ring_pushed");
  check Alcotest.int "merged ring pops" par.Par_runner.ring_popped
    (value "ring_popped");
  check Alcotest.int "merged drains" (sum (fun s -> s.Par_runner.ss_drains))
    (value "drains");
  check Alcotest.int "placement weights summed" 4 (value "placement_weight");
  check Alcotest.int "shard registries untouched by the merge"
    par.Par_runner.handoffs
    (sum (fun s ->
         Tyco_support.Stats.counter_value s.Par_runner.ss_stats "handoffs_in"));
  check Alcotest.bool "snapshots fired" true (!snapshots <> []);
  List.iter
    (fun (s : Par_runner.snapshot) ->
      check Alcotest.int "snapshot sees every shard" d
        (Array.length s.Par_runner.sn_executed))
    !snapshots;
  (* the sites list spans every shard's sites, post-join, and so does
     the report, with what the shards' links sampled *)
  check Alcotest.int "all sites surfaced" 4
    (List.length par.Par_runner.sites);
  check Alcotest.int "every site reported" 4 (List.length rep.Report.sites);
  check Alcotest.bool "wire latency reported" true
    (rep.Report.breakdown.Report.b_wire <> None);
  (* the report renders it all as one JSON object *)
  let json = Report.to_json rep in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "per-shard section" true (has json "\"shards\":[");
  check Alcotest.bool "ring hiwater key" true (has json "\"ring_hiwater\":");
  check Alcotest.bool "latency breakdown" true
    (has json "\"latency_breakdown\"");
  check Alcotest.bool "p999 key" true (has json "\"p999\":")

(* One metric schema: every engine runs the same node daemon, so the
   export registry of a two-domain run counts the daemon's site
   deliveries, and on these programs — whose packets do not depend on
   interleaving — exactly as many deliveries and packets as the
   deterministic engine's. *)
let deliveries_counted_at_two_domains () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let one = Tyco_support.Metrics.value (Cluster.stats det.Api.cluster) in
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:2 prog
      in
      let two =
        Tyco_support.Metrics.value (Report.of_parallel par).Report.stats
      in
      check Alcotest.bool (name ^ ": deterministic run delivers") true
        (one "deliveries" > 0);
      check Alcotest.int (name ^ ": deliveries at 2 domains")
        (one "deliveries") (two "deliveries");
      check Alcotest.int (name ^ ": packets at 2 domains") (one "packets")
        (two "packets"))
    corpus

(* Handoff: every ring element is one frame — without migrations the
   rings carry exactly the handoffs, and the reported fill mean reads
   1; placement weights surface in both the shard rows and the JSON
   report. *)
let handoff_batching_invariants () =
  let _, src = List.nth corpus 0 in
  let prog = Api.parse src in
  let d = 4 in
  let par =
    Api.run_parallel ~config ~placement:placement_spread ~domains:d prog
  in
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  check Alcotest.int "elements balanced" par.Par_runner.ring_pushed
    par.Par_runner.ring_popped;
  check Alcotest.bool "cross-shard traffic happened" true
    (par.Par_runner.handoffs > 0);
  let rep = Report.of_parallel par in
  check Alcotest.int "no migrations" 0
    (Tyco_support.Metrics.value rep.Report.stats "migrations");
  check Alcotest.int "one frame per ring element" par.Par_runner.handoffs
    par.Par_runner.ring_pushed;
  check (Alcotest.float 0.) "fill mean reads 1" 1.0
    par.Par_runner.ring_batch_fill_mean;
  (* placement weights: one per shard, summing to the site count (the
     static weight under the default Mod policy) *)
  check Alcotest.int "one weight per shard" d
    (Array.length par.Par_runner.shard_stats);
  let wsum =
    Array.fold_left
      (fun acc st -> acc +. st.Par_runner.ss_weight)
      0. par.Par_runner.shard_stats
  in
  check Alcotest.int "weights sum to the site count" 4
    (int_of_float (wsum +. 0.5));
  (* measured node weights: one per node, positive in total *)
  check Alcotest.int "one measured weight per node" config.Cluster.nodes
    (Array.length par.Par_runner.node_weights);
  check Alcotest.bool "instructions attributed to nodes" true
    (Array.fold_left ( +. ) 0. par.Par_runner.node_weights > 0.);
  (* and it all surfaces in the JSON report *)
  let json = Report.to_json rep in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "fill mean key" true
    (has json "\"ring_batch_fill_mean\":");
  check Alcotest.bool "placement weights key" true
    (has json "\"placement_weights\":[");
  check Alcotest.bool "node weights key" true (has json "\"node_weights\":[");
  check Alcotest.bool "per-shard weight key" true (has json "\"weight\":")

(* Handoff latency: a shard flushes its outbound buffers at every event
   boundary, so a frame leaves as soon as the event that sent it
   returns instead of waiting out a run of local events.  The sender
   (node 1, shard 1 under Mod) crunches for longer than one
   512-instruction quantum between sends, so no single event emits two
   cross-shard packets: every frame carries one packet and every ring
   element one frame.  Frames therefore do not depend on interleaving,
   and two domains send exactly the packets and frame bytes one does. *)
let handoff_per_event () =
  let prog =
    Api.parse
      {| site recv {
           export new inbox
           def Sink(self, n) =
             self?(v) = (if n == 1 then io!printi[v] else Sink[self, n - 1])
           in Sink[inbox, 40] }
         site send {
           import inbox from recv in
           def Crunch(n, k) = if n == 0 then k![1] else Crunch[n - 1, k]
           and Loop(i) =
             if i == 0 then nil
             else (inbox![i] | new d (Crunch[500, d] | d?(x) = Loop[i - 1]))
           in Loop[40] } |}
  in
  let placement name = if name = "recv" then 0 else 1 in
  let det = Api.run_program ~config ~placement prog in
  let one = Api.run_parallel ~config ~placement ~domains:1 prog in
  let par =
    Api.run_parallel ~config ~placement ~policy:Placement.Mod ~domains:2 prog
  in
  let one = Report.of_parallel one and two = Report.of_parallel par in
  check Alcotest.int "packets as at 1 domain" one.Report.packets
    two.Report.packets;
  check Alcotest.int "frame bytes as at 1 domain" one.Report.bytes
    two.Report.bytes;
  check Alcotest.bool "clean quiescence" true par.Par_runner.clean;
  check
    Alcotest.(list string)
    "multiset preserved"
    (event_multiset det.Api.outputs)
    (event_multiset par.Par_runner.outputs);
  check Alcotest.bool "every send crossed a ring" true
    (par.Par_runner.handoffs >= 40);
  check
    Alcotest.(float 1e-9)
    "one envelope per ring element" 1.0
    par.Par_runner.ring_batch_fill_mean;
  check Alcotest.int "ring pushes = handoffs" par.Par_runner.handoffs
    par.Par_runner.ring_pushed

(* ------------------------------------------------------------------ *)
(* Dynamic rebalancing (PR 10)                                         *)

let choose_migration_properties () =
  (* balanced loads: never migrates *)
  check
    Alcotest.(option (pair int int))
    "balanced -> None" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 1; 0; 1 |]
       ~loads:[| 2.; 2.; 2.; 2. |] ~threshold:1.2);
  (* a hot shard with a movable node: the node nearest half the
     hot-cold gap goes to the coldest shard *)
  let map = [| 0; 0; 0; 1 |] and loads = [| 0.; 6.; 2.; 1. |] in
  check
    Alcotest.(option (pair int int))
    "skew -> best-fit node to coldest shard"
    (Some (2, 1))
    (Placement.choose_migration ~domains:2 ~map ~loads ~threshold:1.2);
  (* hysteresis: the same skew under a high threshold stays put *)
  check
    Alcotest.(option (pair int int))
    "high threshold -> None" None
    (Placement.choose_migration ~domains:2 ~map ~loads ~threshold:3.0);
  (* node 0 (name-service host) is pinned: a hot shard whose only
     loaded node is node 0 yields no move *)
  check
    Alcotest.(option (pair int int))
    "node 0 never migrates" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 1 |]
       ~loads:[| 10.; 1. |] ~threshold:1.2);
  (* a node whose load exceeds the whole gap would just swap the
     imbalance around: not proposed *)
  check
    Alcotest.(option (pair int int))
    "oversized node stays" None
    (Placement.choose_migration ~domains:2 ~map:[| 0; 0; 1 |]
       ~loads:[| 0.; 10.; 1. |] ~threshold:1.2);
  match
    Placement.choose_migration ~domains:2 ~map:[| 0; 1 |] ~loads:[| 1. |]
      ~threshold:1.2
  with
  | _ -> Alcotest.fail "length mismatch accepted"
  | exception Invalid_argument _ -> ()

(* Output multisets are preserved with the rebalancer armed (aggressive
   interval and threshold), across the domain sweep plus 8. *)
let rebalance_equivalence () =
  let rb = { Par_runner.rb_interval_ms = 1; rb_threshold = 1.01 } in
  let ds = List.sort_uniq compare (8 :: domain_counts) in
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let reference = event_multiset det.Api.outputs in
      List.iter
        (fun d ->
          let par =
            Api.run_parallel ~config ~placement:placement_spread ~domains:d
              ~rebalance:rb prog
          in
          let label = Printf.sprintf "%s rebalancing at %d domains" name d in
          check
            Alcotest.(list string)
            label reference
            (event_multiset par.Par_runner.outputs);
          check Alcotest.bool (label ^ " clean") true par.Par_runner.clean;
          check Alcotest.int (label ^ " rings drained")
            par.Par_runner.ring_pushed par.Par_runner.ring_popped;
          check Alcotest.int (label ^ " no dead letters") 0
            par.Par_runner.dead_letters;
          check
            Alcotest.(list string)
            (label ^ " every site reported")
            (site_names (Cluster.sites det.Api.cluster))
            (site_names par.Par_runner.sites))
        ds)
    corpus

(* The deterministic migration hook: both forced moves must install
   (each holds a quiescence unit from ship to install, so a clean run
   cannot terminate around them), with no envelope lost or duplicated
   anywhere — the multiset survives a node changing shards mid-run. *)
let forced_migration_accounting () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let reference = event_multiset det.Api.outputs in
      (* nodes 1 and 2 start on shards 1 and 2 under Mod at 4 domains,
         so both commands post before the domains spawn *)
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:4
          ~force_migrations:[ (1, 3); (2, 0) ]
          prog
      in
      let label = Printf.sprintf "%s forced migration" name in
      let rep = Report.of_parallel par in
      let counted = Tyco_support.Metrics.value rep.Report.stats in
      check Alcotest.int (label ^ ": both moves installed") 2
        (counted "migrations");
      check Alcotest.bool (label ^ ": clean") true par.Par_runner.clean;
      check Alcotest.bool (label ^ ": not timed out") false
        par.Par_runner.timed_out;
      check Alcotest.int (label ^ ": rings drained")
        par.Par_runner.ring_pushed par.Par_runner.ring_popped;
      check Alcotest.int (label ^ ": no dead letters") 0
        par.Par_runner.dead_letters;
      check
        Alcotest.(list string)
        (label ^ ": every site reported")
        (site_names (Cluster.sites det.Api.cluster))
        (site_names par.Par_runner.sites);
      check Alcotest.bool (label ^ ": migration time measured") true
        (counted "migration_ns" > 0);
      check Alcotest.bool (label ^ ": forwarded counter sane") true
        (counted "forwarded_envelopes" >= 0);
      check
        Alcotest.(list string)
        (label ^ ": multiset preserved")
        reference
        (event_multiset par.Par_runner.outputs);
      (* the counters surface in the JSON report *)
      let json = Report.to_json rep in
      let has hay sub =
        let nh = String.length hay and nn = String.length sub in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = sub || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool (label ^ ": migrations key") true
        (has json "\"migrations\":2");
      check Alcotest.bool (label ^ ": forwarded key") true
        (has json "\"forwarded_envelopes\":"))
    corpus;
  (* out-of-range entries are loud: node 0 is pinned, shards bounded *)
  let prog = Api.parse (snd (List.hd corpus)) in
  List.iter
    (fun bad ->
      match
        Api.run_parallel ~config ~placement:placement_spread ~domains:2
          ~force_migrations:[ bad ] prog
      with
      | _ -> Alcotest.fail "bad force_migrations accepted"
      | exception Api.Error (Api.Runtime_error _) -> ())
    [ (0, 1); (-1, 1); (999, 1); (1, 2); (1, -1) ]

(* PR 10 budget fix: [max_events] bounds the event count summed over
   all shards, not each shard separately.  A cap set between the
   per-shard maximum and the whole-run total must now trip — under the
   old per-shard check it silently admitted up to domains * max_events
   events. *)
let global_event_budget () =
  let _, src = List.nth corpus 2 in
  let prog = Api.parse src in
  let free =
    Api.run_parallel ~config ~placement:placement_spread ~domains:4 prog
  in
  let total = (Report.of_parallel free).Report.sim_events in
  let per_shard_max =
    Array.fold_left
      (fun acc s -> max acc s.Par_runner.ss_events)
      0 free.Par_runner.shard_stats
  in
  let cap = total * 2 / 3 in
  (* the regression is only pinned if the cap sits strictly between the
     two semantics *)
  check Alcotest.bool "cap above any single shard" true (per_shard_max < cap);
  check Alcotest.bool "cap below the global total" true (cap < total);
  (match
     Api.run_parallel ~config ~placement:placement_spread ~domains:4
       ~max_events:cap prog
   with
  | _ -> Alcotest.fail "global budget not enforced"
  | exception Api.Error (Api.Runtime_error m) ->
      let has sub =
        let nh = String.length m and nn = String.length sub in
        let rec go i = i + nn <= nh && (String.sub m i nn = sub || go (i + 1)) in
        go 0
      in
      (* satellite 2 rides along: the failure crossed the domain
         boundary and the join names the shard that raised it *)
      check Alcotest.bool "names the failing shard" true (has "shard ");
      check Alcotest.bool "mirrors the Simnet livelock guard" true
        (has "exceeded"));
  (* a cap at the measured total passes: the bound is not off by one
     shard's worth *)
  let again =
    Api.run_parallel ~config ~placement:placement_spread ~domains:4
      ~max_events:(total * 2) prog
  in
  check Alcotest.bool "generous cap still quiesces" true
    again.Par_runner.clean;
  (* and --domains 1 keeps the Simnet semantics for the same cap *)
  match
    Api.run_parallel ~config ~placement:placement_spread ~domains:1
      ~max_events:1 prog
  with
  | _ -> Alcotest.fail "domains 1 budget not enforced"
  | exception Api.Error (Api.Runtime_error _) -> ()

let rebalance_rejects_tracing () =
  let prog = Api.parse (snd (List.hd corpus)) in
  let traced = { config with Cluster.tracing = true } in
  (match
     Api.run_parallel ~config:traced ~placement:placement_spread ~domains:2
       ~rebalance:{ Par_runner.rb_interval_ms = 10; rb_threshold = 1.5 }
       prog
   with
  | _ -> Alcotest.fail "tracing + rebalance accepted"
  | exception Api.Error (Api.Runtime_error _) -> ());
  match
    Api.run_parallel ~config:traced ~placement:placement_spread ~domains:2
      ~force_migrations:[ (1, 0) ] prog
  with
  | _ -> Alcotest.fail "tracing + forced migration accepted"
  | exception Api.Error (Api.Runtime_error _) -> ()

let rejects_deterministic_only_modes () =
  (* the Par_runner contract is Invalid_argument; Api.run_parallel
     re-wraps it as Api.Error like every other runtime failure.  Only
     reliable delivery is refused, and only above one domain: its
     deadlines run on unsynchronized shard clocks *)
  let config = { Cluster.default_config with Cluster.reliable = true } in
  let units = Api.compile (Api.parse "io!printi[1]") in
  (match Par_runner.run ~config ~domains:2 units with
  | _ -> Alcotest.fail "reliable: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (match Api.run_parallel ~config ~domains:2 (Api.parse "io!printi[1]") with
  | _ -> Alcotest.fail "reliable: expected Api.Error"
  | exception Api.Error _ -> ());
  let one = Par_runner.run ~config ~domains:1 units in
  check Alcotest.int "reliable at 1 domain runs" 1
    (List.length one.Par_runner.outputs)

(* The replicated name service runs on the shards' clusters: each
   registration is copied from the exporter's home replica to every
   other one, across rings where the replicas live on other shards. *)
let replicated_ns_equivalence () =
  let config = { config with Cluster.ns_mode = Cluster.Replicated } in
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      List.iter
        (fun d ->
          let par =
            Api.run_parallel ~config ~placement:placement_spread ~domains:d
              prog
          in
          let label = Printf.sprintf "%s replicated ns at %d domains" name d in
          check
            Alcotest.(list string)
            label
            (event_multiset det.Api.outputs)
            (event_multiset par.Par_runner.outputs);
          check Alcotest.bool (label ^ " clean") true par.Par_runner.clean)
        domain_counts)
    corpus

(* Faults roll in the sending cluster's transmit, before the handoff,
   so a partition cuts cross-shard frames too.  Nodes 0 (the server and
   the name service) and 1 (c1) are cut for the whole run: c1's lookup
   is dropped and its import never resolves, at one domain or two. *)
let partition_at_two_domains () =
  let config =
    { config with
      Cluster.faults =
        { Tyco_net.Simnet.no_faults with
          Tyco_net.Simnet.partitions =
            [ { Tyco_net.Simnet.p_a = 0; p_b = 1; p_from = 0;
                p_until = max_int } ] } }
  in
  let prog = Api.parse (List.assoc "rpc" corpus) in
  let run d =
    event_multiset
      (Api.run_parallel ~config ~placement:placement_spread ~domains:d prog)
        .Par_runner.outputs
  in
  let one = run 1 in
  check Alcotest.int "c1's line is missing" 2 (List.length one);
  check Alcotest.(list string) "2 domains as 1" one (run 2)

(* Leases on the sharded engine, on the E17 churn shape: four clients
   each make [rounds] synchronous calls, and every call exports a fresh
   reply channel.  Shard clocks are not synchronized, so a packet from a
   shard whose clock runs ahead can move an exporter's clock past a
   lease it has not yet seen renewed; the lease must still never bite a
   reply channel whose reply is on its way (DESIGN.md §11). *)
let churn_src ~clients ~rounds =
  let client i =
    Printf.sprintf
      {| site c%d { import svc from server in
                    def Ping(n) = if n == 0 then io!printi[%d]
                                  else let v = svc!ping[n] in Ping[n - 1]
                    in Ping[%d] } |}
      i i rounds
  in
  Printf.sprintf
    {| site server {
         def Serve(svc) = svc?{ ping(v, k) = (k![v] | Serve[svc]) }
         in export new svc Serve[svc] }
       %s |}
    (String.concat "" (List.init clients client))

let leases_at_two_domains () =
  let config =
    { Cluster.default_config with
      Cluster.lease_ns = 200_000; lease_refresh_ns = 50_000 }
  in
  let prog = Api.parse (churn_src ~clients:4 ~rounds:1_000) in
  let want = event_multiset (Api.run_program ~config prog).Api.outputs in
  for run = 1 to 30 do
    let r = Api.run_parallel ~config ~domains:2 prog in
    let name what = Printf.sprintf "run %d: %s" run what in
    check Alcotest.(list string) (name "outputs") want
      (event_multiset r.Par_runner.outputs);
    check Alcotest.bool (name "clean") true r.Par_runner.clean;
    check Alcotest.int (name "stale refs") 0
      (List.fold_left
         (fun acc s ->
           acc + Tyco_support.Stats.counter_value (Site.stats s) "stale_refs")
         0 r.Par_runner.sites)
  done

(* No early stop, the TCP engine's check run on this one: three clients
   on nodes 1-3 call a server on node 0 and each prints as soon as its
   own calls return, so a run that stops while a batch is in a ring, a
   command is posted or a node is in transit loses a line or ends
   unclean.  Some runs also move a client's node as the run starts. *)
let no_early_stop () =
  let rounds = 10 in
  let client i =
    Printf.sprintf
      {| site c%d { import svc from server in
           def Ping(n, acc) = if n == 0 then io!printi[acc]
                              else let v = svc!ping[n] in Ping[n - 1, acc + v]
           in Ping[%d, %d] } |}
      i rounds (i * 1_000_000)
  in
  let units =
    Api.compile
      (Api.parse
         ({| site server {
               def Serve(svc) = svc?{ ping(v, k) = (k![v + 1] | Serve[svc]) }
               in export new svc Serve[svc] } |}
         ^ String.concat "" (List.init 3 client)))
  in
  let expected =
    List.init 3 (fun i ->
        { Output.site = Printf.sprintf "c%d" i;
          label = "printi";
          args = [ Output.Oint ((i * 1_000_000) + (rounds * (rounds + 3) / 2)) ] })
  in
  List.iter
    (fun (domains, runs, force_migrations) ->
      for run = 1 to runs do
        let r = Par_runner.run ~domains ~force_migrations units in
        let fail what =
          Alcotest.failf "%d domains, moves [%s], run %d: %s" domains
            (String.concat "; "
               (List.map (fun (ip, d) -> Printf.sprintf "%d->%d" ip d)
                  force_migrations))
            run what
        in
        if not (Output.same_multiset expected (List.map snd r.Par_runner.outputs))
        then
          fail
            (Printf.sprintf "%d lines, not the 3 expected"
               (List.length r.Par_runner.outputs));
        if not r.Par_runner.clean then fail "not clean";
        let moved =
          Tyco_support.Metrics.value (Report.of_parallel r).Report.stats
            "migrations"
        in
        if moved <> List.length force_migrations then
          fail (Printf.sprintf "%d moves installed" moved)
      done)
    [ (2, 300, []); (4, 50, []); (2, 50, [ (1, 0) ]); (4, 50, [ (1, 2); (3, 0) ]) ]

(* A site's runtime error stops every shard, and the join names the
   shard: the run ends at once, not at the wall-clock bound, though
   the other site never quiesces. *)
let shard_failure_fails_fast () =
  let prog =
    Api.parse
      {| site a { def Spin() = Spin[] in Spin[] }
         site b { io!printi[1 / 0] } |}
  in
  let t0 = Unix.gettimeofday () in
  (match Api.run_parallel ~domains:2 prog with
  | _ -> Alcotest.fail "run finished without failing"
  | exception Api.Error (Api.Runtime_error m) ->
      check Alcotest.string "names shard 1 and the error"
        "shard 1 failed: division by zero" m);
  if Unix.gettimeofday () -. t0 > 5. then
    Alcotest.fail "shard failure waited out the bound"

(* One domain is one shard, so its report is the deterministic
   engine's: the same JSON in every common key once the parallel
   section is set aside. *)
let report_at_one_domain () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let det = Api.run_program ~config ~placement:placement_spread prog in
      let par =
        Api.run_parallel ~config ~placement:placement_spread ~domains:1 prog
      in
      check Alcotest.string
        (name ^ ": common keys as the deterministic engine's")
        (Report.to_json (Report.of_cluster det.Api.cluster))
        (Report.to_json
           { (Report.of_parallel par) with Report.engine = Report.Deterministic }))
    corpus

let tests =
  [ ("spsc ring fifo", `Quick, ring_fifo);
    ("spsc ring bounded", `Quick, ring_bounded);
    ("spsc ring wraparound", `Quick, ring_wraparound);
    ("spsc ring two domains", `Quick, ring_two_domains);
    ("domains 1 bit-identical", `Quick, domains1_bit_identical);
    ("multiset equivalence", `Quick, multiset_equivalence);
    ("shipped samples equivalence", `Slow, shipped_samples_equivalence);
    ("placement map properties", `Quick, placement_map_properties);
    ("policy equivalence sweeps", `Slow, policy_equivalence);
    ("sharding smoke at 4 domains", `Quick, sharding_smoke);
    ("handoff batching invariants", `Quick, handoff_batching_invariants);
    ("handoff flushed per event", `Quick, handoff_per_event);
    ("shard stats and metrics merge", `Quick, shard_stats_and_metrics);
    ("deliveries counted at 2 domains", `Quick,
     deliveries_counted_at_two_domains);
    ("rejects deterministic-only modes", `Quick,
     rejects_deterministic_only_modes);
    ("choose migration properties", `Quick, choose_migration_properties);
    ("rebalance equivalence", `Quick, rebalance_equivalence);
    ("forced migration accounting", `Quick, forced_migration_accounting);
    ("global event budget", `Quick, global_event_budget);
    ("rebalance rejects tracing", `Quick, rebalance_rejects_tracing);
    ("leases at 2 domains", `Quick, leases_at_two_domains);
    ("replicated ns equivalence", `Quick, replicated_ns_equivalence);
    ("partition at 2 domains", `Quick, partition_at_two_domains);
    ("no early stop", `Quick, no_early_stop);
    ("shard failure fails fast", `Quick, shard_failure_fails_fast);
    ("report at 1 domain as deterministic", `Quick, report_at_one_domain) ]
