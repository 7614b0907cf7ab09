(* Resource-lifecycle tests: lease-based reclamation of export-table
   entries, stale-reference failure semantics, duplicate-suppression
   pruning, LRU code caches, and the refutation path of the heartbeat
   monitor.

   The churn workload is the E17 shape: every RPC creates a fresh
   reply channel, so the client's export table grows linearly without
   leases and stays flat with them. *)

open Dityco
module Simnet = Tyco_net.Simnet
module Packet = Tyco_net.Packet
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats
module Lru = Tyco_support.Lru

let check = Alcotest.check
let ev_testable = Alcotest.testable Output.pp_event Output.equal_event

let churn_src rounds =
  Printf.sprintf
    {| site server {
         def Serve(svc) = svc?{ ping(v, k) = (k![v] | Serve[svc]) }
         in export new svc Serve[svc] }
       site client { import svc from server in
                     def Ping(n) =
                       if n == 0 then io!printi[0]
                       else let v = svc!ping[n] in Ping[n - 1]
                     in Ping[%d] } |}
    rounds

let run ?config src = Api.run_program ?config (Api.parse src)
let events r = List.map snd r.Api.outputs

let counter_total cluster name =
  List.fold_left
    (fun acc s -> acc + Stats.counter_value (Site.stats s) name)
    0 (Cluster.sites cluster)

(* Leases keep the lifecycle tick on a 50 µs cadence against ~20 µs
   RPC round-trips, so reclamation happens many times within a run
   while an in-flight reply channel never outlives its lease. *)
let lease_config =
  { Cluster.default_config with
    Cluster.lease_ns = 200_000;
    lease_refresh_ns = 50_000 }

(* ------------------------------------------------------------------ *)
(* LRU code caches                                                     *)

let lru_basics () =
  let c = Lru.create ~capacity:2 in
  check Alcotest.int "capacity" 2 (Lru.capacity c);
  check Alcotest.bool "no eviction below cap" true (Lru.add c 1 "a" = None);
  check Alcotest.bool "still none" true (Lru.add c 2 "b" = None);
  (* touch 1 so 2 becomes the LRU victim *)
  check (Alcotest.option Alcotest.string) "find touches" (Some "a")
    (Lru.find c 1);
  (match Lru.add c 3 "c" with
  | Some (k, v) ->
      check Alcotest.int "evicted key" 2 k;
      check Alcotest.string "evicted value" "b" v
  | None -> Alcotest.fail "expected an eviction");
  check Alcotest.int "length stays at cap" 2 (Lru.length c);
  check (Alcotest.option Alcotest.string) "evicted gone" None (Lru.find c 2);
  check (Alcotest.option Alcotest.string) "touched kept" (Some "a")
    (Lru.find c 1);
  check Alcotest.bool "remove" true (Lru.remove c 1);
  check Alcotest.bool "remove absent" false (Lru.remove c 1);
  check Alcotest.int "length after remove" 1 (Lru.length c);
  (* replacing an existing key updates in place, no eviction *)
  check Alcotest.bool "re-add same key" true (Lru.add c 3 "c2" = None);
  check (Alcotest.option Alcotest.string) "updated" (Some "c2") (Lru.find c 3)

let lru_rejects_bad_capacity () =
  check Alcotest.bool "capacity 0 rejected" true
    (match Lru.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Leases bound the export tables                                      *)

let leases_bound_live_exports () =
  let src = churn_src 300 in
  let base = run src in
  let leased = run ~config:lease_config src in
  check (Alcotest.list ev_testable) "outputs unchanged" (events base)
    (events leased);
  let mem r = Site.memory (Cluster.site r.Api.cluster "client") in
  let b = mem base and l = mem leased in
  (* without leases the client's table holds every reply channel ever
     exported; with them it holds only the recent working set *)
  check Alcotest.bool "baseline grows linearly" true (b.Site.m_chan_live >= 300);
  check Alcotest.int "baseline reclaims nothing" 0 b.Site.m_chan_reclaimed;
  check Alcotest.bool "leased stays bounded" true (l.Site.m_chan_live < 60);
  check Alcotest.bool "leased reclaims most ids" true
    (l.Site.m_chan_reclaimed > 200);
  check Alcotest.int "allocated = live + reclaimed"
    (l.Site.m_chan_live + l.Site.m_chan_reclaimed)
    l.Site.m_chan_allocated;
  (* reclamation never bit an in-use reference *)
  check Alcotest.int "no stale refs" 0
    (counter_total leased.Api.cluster "stale_refs");
  (* the server only receives reply channels and sends to them, both
     uses the exporter sees: no refresh is needed, so leases add no
     packet *)
  check Alcotest.int "reply channels need no refresh" 0
    (counter_total leased.Api.cluster "lease_refreshes");
  check Alcotest.int "no packets beyond the lease-off run" base.Api.packets
    leased.Api.packets

let leases_deterministic () =
  let src = churn_src 120 in
  let a = run ~config:lease_config src in
  let b = run ~config:lease_config src in
  check (Alcotest.list ev_testable) "same outputs" (events a) (events b);
  check Alcotest.int "same virtual time" a.Api.virtual_ns b.Api.virtual_ns;
  check Alcotest.int "same packets" a.Api.packets b.Api.packets;
  let mem r = Site.memory (Cluster.site r.Api.cluster "client") in
  check Alcotest.int "same reclamation"
    (mem a).Site.m_chan_reclaimed (mem b).Site.m_chan_reclaimed

(* The name-service registration is pinned: however long the run, the
   exported service channel survives every sweep. *)
let pinned_exports_survive () =
  let r = run ~config:lease_config (churn_src 300) in
  let server = Cluster.site r.Api.cluster "server" in
  check Alcotest.bool "server's pinned export still live" true
    ((Site.memory server).Site.m_chan_live >= 1);
  (* and it still resolves: the run completed, so every RPC went
     through the pinned channel *)
  check (Alcotest.list ev_testable) "run completed"
    [ { Output.site = "client"; label = "printi"; args = [ Output.Oint 0 ] } ]
    (events r)

(* A reference its exporter never sees used: [ex] hands its channel [r]
   to [pa], and [pa] and [pb] pass it back and forth [hops] times before
   the last holder sends to it.  Each pass pokes [ex]'s pinned channel so
   [ex] keeps running its lifecycle tick, which would reclaim [r] unless
   the passes are refreshed. *)
let handoff_src hops =
  let hopper self other =
    Printf.sprintf
      {| site p%s {
           def Hop(self, other, poke) =
             self?(n, r) = ((if n == 0 then r![42]
                             else (other![n - 1, r] | poke![0]))
                            | Hop[self, other, poke])
           in export new c%s (import c%s from p%s in import poke from ex in
                              Hop[c%s, c%s, poke]) } |}
      self self other other self other
  in
  Printf.sprintf
    {| site ex {
         def Sink(s) = s?(z) = Sink[s]
         in export new poke (Sink[poke] |
              import ca from pa in new r ((r?(x) = io!printi[x]) | ca![%d, r])) }
       %s %s |}
    hops (hopper "a" "b") (hopper "b" "a")

let passed_reference_stays_live () =
  let lease_ns = 50_000 in
  let cfg =
    { Cluster.default_config with
      Cluster.lease_ns; lease_refresh_ns = lease_ns / 4 }
  in
  let r = run ~config:cfg (handoff_src 40) in
  check (Alcotest.list ev_testable) "printed, no stale-ref"
    [ { Output.site = "ex"; label = "printi"; args = [ Output.Oint 42 ] } ]
    (events r);
  check Alcotest.int "no stale refs" 0 (counter_total r.Api.cluster "stale_refs");
  (match r.Api.outputs with
  | [ (ts, _) ] ->
      check Alcotest.bool "the hand-off outlasts two grants" true
        (ts > 2 * 2 * lease_ns)
  | _ -> Alcotest.fail "expected one output");
  check Alcotest.bool "the passes were refreshed" true
    (counter_total r.Api.cluster "lease_refreshes" > 0)

(* ------------------------------------------------------------------ *)
(* Stale references fail visibly and deterministically                 *)

let stale_ref_is_visible () =
  let cfg = { lease_config with Cluster.reliable = true } in
  let r = run ~config:cfg (churn_src 200) in
  let cluster = r.Api.cluster in
  let client = Cluster.site cluster "client" in
  let server = Cluster.site cluster "server" in
  check Alcotest.bool "some ids were reclaimed" true
    ((Site.memory client).Site.m_chan_reclaimed > 0);
  (* heap id 0 = the first reply channel the client exported; long
     since reclaimed.  A retransmitted shipment naming it must surface
     as a stale-ref event, not a protocol error or a silent alias. *)
  let dst =
    Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:(Site.site_id client)
      ~ip:(Site.ip client)
  in
  Cluster.inject_packet cluster ~src_ip:(Site.ip server)
    (Packet.Pmsg { dst; label = "late"; args = [] });
  Cluster.run cluster;
  check Alcotest.int "stale_refs counted" 1
    (Stats.counter_value (Site.stats client) "stale_refs");
  let stale_events =
    List.filter
      (fun ((_, e) : int * Output.event) ->
        String.equal e.Output.site "client"
        && String.equal e.Output.label "stale-ref")
      (Cluster.outputs cluster)
  in
  check Alcotest.int "one stale-ref output" 1 (List.length stale_events);
  (* a second copy of the same packet behaves identically *)
  Cluster.inject_packet cluster ~src_ip:(Site.ip server)
    (Packet.Pmsg { dst; label = "late"; args = [] });
  Cluster.run cluster;
  check Alcotest.int "deterministic on repeat" 2
    (Stats.counter_value (Site.stats client) "stale_refs")

(* A reference this site never issued is still a protocol error — the
   stale-ref path must not swallow genuine violations. *)
let never_issued_still_raises () =
  let r = run ~config:lease_config (churn_src 50) in
  let cluster = r.Api.cluster in
  let client = Cluster.site cluster "client" in
  let server = Cluster.site cluster "server" in
  let dst =
    Netref.make ~kind:Netref.Channel ~heap_id:999_999
      ~site_id:(Site.site_id client) ~ip:(Site.ip client)
  in
  Cluster.inject_packet cluster ~src_ip:(Site.ip server)
    (Packet.Pmsg { dst; label = "bogus"; args = [] });
  check Alcotest.bool "protocol error" true
    (match Cluster.run cluster with
    | exception Site.Protocol_error _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Chaos: reclamation never races an in-use reference                  *)

let chaos_faults =
  { Simnet.drop = 0.2; duplicate = 0.1; reorder = 0.3; reorder_ns = 50_000;
    partitions = [] }

(* The lease must outlive the longest retransmission tail the chaos
   parameters can realistically produce (cumulative backoff through
   nine straight losses is ~150 ms); 200 ms virtual with a 20 ms
   refresh keeps every in-flight reference renewed. *)
let chaos_lease_config seed =
  { Cluster.default_config with
    Cluster.seed;
    faults = chaos_faults;
    reliable = true;
    lease_ns = 200_000_000;
    lease_refresh_ns = 20_000_000 }

let chaos_with_leases_preserves_outputs () =
  let programs =
    ("churn", churn_src 150)
    :: List.filter
         (fun (name, _) -> List.mem name [ "rpc"; "applet-ship" ])
         Test_runtime.paper_programs
  in
  List.iter
    (fun (name, src) ->
      let clean = events (run src) in
      List.iter
        (fun seed ->
          let r = run ~config:(chaos_lease_config seed) src in
          if not (Output.same_multiset clean (events r)) then
            Alcotest.failf "%s (seed %d): outputs differ under chaos + leases"
              name seed;
          check Alcotest.int
            (Printf.sprintf "%s (seed %d): no stale refs" name seed)
            0
            (counter_total r.Api.cluster "stale_refs"))
        [ 7; 1234; 99991 ])
    programs

(* ------------------------------------------------------------------ *)
(* Duplicate-suppression pruning                                       *)

let done_reqs_pruned () =
  (* tiny retry parameters shrink the derived horizon to ~15 µs
     virtual; in the default (unreliable) mode no deadlines are armed,
     so the parameters only affect the horizon.  The churn run lasts
     milliseconds, so the import request's dedup entry is long pruned
     by the end. *)
  let tiny = { Site.r_timeout_ns = 1_000; r_backoff = 2.0; r_max_tries = 3 } in
  let cfg = { Cluster.default_config with Cluster.site_retry = tiny } in
  let r = run ~config:cfg (churn_src 100) in
  let client = Cluster.site r.Api.cluster "client" in
  check Alcotest.int "dedup set empty at the end" 0
    (Site.memory client).Site.m_done_reqs;
  check Alcotest.bool "entries were pruned" true
    (Stats.counter_value (Site.stats client) "done_reqs_pruned" >= 1);
  (* default horizon (~0.5 s virtual) never fires within this run *)
  let d = run (churn_src 100) in
  let dclient = Cluster.site d.Api.cluster "client" in
  check Alcotest.bool "default keeps the entry" true
    ((Site.memory dclient).Site.m_done_reqs >= 1)

(* ------------------------------------------------------------------ *)
(* Bounded code caches re-fetch on miss                                *)

let code_cache_evicts_and_refetches () =
  (* two distinct remote classes against a capacity-1 cache: the
     second fetch evicts the first mapping; outputs are unaffected *)
  let src =
    {| site server { export def A(p) = p![1] in export def B(q) = q![2] in nil }
       site client { import A from server in import B from server in
                     new p (A[p] | p?(x) =
                       (io!printi[x] |
                        new q (B[q] | q?(y) = io!printi[y]))) } |}
  in
  let clean = run src in
  let bounded =
    run
      ~config:{ Cluster.default_config with Cluster.code_cache_capacity = 1 }
      src
  in
  check Alcotest.bool "same outputs" true
    (Output.same_multiset (events clean) (events bounded));
  let client = Cluster.site bounded.Api.cluster "client" in
  check Alcotest.bool "cache never exceeds capacity" true
    ((Site.memory client).Site.m_grp_cache <= 1);
  check Alcotest.bool "eviction happened" true
    (Stats.counter_value (Site.stats client) "code_cache_evictions" >= 1)

(* ------------------------------------------------------------------ *)
(* Heartbeat refutation                                                *)

let heartbeat_refutation_state () =
  (* a genuinely killed site: exactly one suspicion, no recoveries —
     the refutation path must not fire, and the suspicion must not be
     double-counted across later probe rounds *)
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse (churn_src 200)));
  let report =
    Failure.run_with_heartbeats ~period:100_000
      ~kills:[ ("server", 500_000) ]
      cluster
  in
  check Alcotest.int "one suspicion" 1 (List.length report.Failure.suspicions);
  check Alcotest.int "no false suspicions" 0 report.Failure.false_suspicions;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "no recoveries" [] report.Failure.recoveries

let tests =
  [ ("lru basics", `Quick, lru_basics);
    ("lru rejects zero capacity", `Quick, lru_rejects_bad_capacity);
    ("leases bound live exports", `Quick, leases_bound_live_exports);
    ("lease reclamation deterministic", `Quick, leases_deterministic);
    ("pinned exports survive", `Quick, pinned_exports_survive);
    ("passed reference stays live", `Quick, passed_reference_stays_live);
    ("stale ref fails visibly", `Quick, stale_ref_is_visible);
    ("never-issued id still raises", `Quick, never_issued_still_raises);
    ("chaos + leases preserve outputs", `Quick, chaos_with_leases_preserves_outputs);
    ("done_reqs pruned past horizon", `Quick, done_reqs_pruned);
    ("code cache evicts and refetches", `Quick, code_cache_evicts_and_refetches);
    ("heartbeat refutation state", `Quick, heartbeat_refutation_state) ]
