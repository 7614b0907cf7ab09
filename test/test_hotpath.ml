(* Zero-cost-when-disabled: the E1 hot-path guarantees PR 6 restored.

   PRs 3–5 eroded the VM's edge over the reference interpreter (2.2x ->
   1.2x) by letting tracing/lease/batching bookkeeping creep onto the
   always-on reduction and send paths, and the CI gate of the time let
   it through.  These tests pin the property directly, in units that
   are deterministic on any machine (allocated words, recorded events,
   report bytes) rather than wall-clock ns:

   - with every optional subsystem off, the E1 workload allocates under
     a fixed budget of minor words per reduction;
   - the disabled [Trace] singleton records nothing and allocates
     nothing, even across a full chaos run;
   - the always-on [Stats] counting a metrics export reads allocates
     nothing per bump;
   - [lease_ns = 0] produces a bit-identical [Report] to the seed
     semantics (the default, lifecycle-free configuration). *)

open Dityco
module Trace = Tyco_support.Trace
module Stats = Tyco_support.Stats
module Metrics = Tyco_support.Metrics

let check = Alcotest.check

let counter_src n =
  Printf.sprintf
    {| def Counter(self, acc) =
         self?{ bump(k) = (k![acc + 1] | Counter[self, acc + 1]) }
       in def Driver(c, n) =
         if n == 0 then io!printi[n]
         else new k (c!bump[k] | k?(v) = Driver[c, n - 1])
       in new c (Counter[c, 0] | Driver[c, %d]) |}
    n

(* Minor words per E1 reduction with tracing and leases off.
   The budget is calibrated against the PR 6 hot path (~69 words per
   reduction, compile + cluster setup included) with headroom for
   compiler/runtime variation; the pre-fix loop burned ~131 words per
   reduction, so bookkeeping creeping back onto the path trips this
   long before it shows up as wall-clock noise. *)
let words_per_reduction_budget = 110.

let e1_minor_words_capped () =
  let n = 200 in
  let reductions = float_of_int (2 * n) in
  let prog = Api.parse (counter_src n) in
  let config =
    { Cluster.default_config with Cluster.tracing = false; lease_ns = 0 }
  in
  let run () = ignore (Api.run_program ~typecheck:false ~config prog) in
  run ();
  (* warm-up: one-time interning etc. *)
  let runs = 5 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    run ()
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
  let per_reduction = per_run /. reductions in
  if per_reduction > words_per_reduction_budget then
    Alcotest.failf
      "E1 allocates %.0f minor words per reduction with all features \
       off (budget %.0f): bookkeeping is back on the hot path"
      per_reduction words_per_reduction_budget

(* The disabled tracer singleton: a full chaos run (reliable transport
   over a lossy fabric, the most event-happy configuration we have)
   must leave it empty, and emitting against it must not allocate. *)
let disabled_trace_records_nothing () =
  let faults =
    { Tyco_net.Simnet.drop = 0.2; duplicate = 0.1; reorder = 0.3;
      reorder_ns = 50_000; partitions = [] }
  in
  let config =
    { Cluster.default_config with Cluster.seed = 1234; faults;
      reliable = true }
  in
  let src =
    {| site s { import p from r in let y = p![7] in io!printi[y] }
       site r { export new p p?(x, k) = k![x * x] } |}
  in
  let r = Api.run_program ~config (Api.parse src) in
  let tr = Cluster.tracer r.Api.cluster in
  check Alcotest.bool "cluster tracer is the disabled singleton" false
    (Trace.enabled tr);
  check Alcotest.int "no events recorded across the chaos run" 0
    (List.length (Trace.events tr));
  (* emit/fresh_span against the disabled singleton allocate nothing:
     10k calls must cost 0 minor words *)
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.emit Trace.disabled ~ts:i ~track:0 ~span:Trace.null_span
      Trace.Msg_park;
    ignore (Trace.fresh_span Trace.disabled ~parent:Trace.null_span)
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "disabled Trace allocated %.0f words over 10k emits"
      words

(* Counting costs nothing worth a switch: with nothing turned on, a
   plain run's cluster registry already holds every key
   [tycosh --metrics-out] exports, agreeing with the cluster's own
   books, and the bumps the hot path makes — counters and small-integer
   samples — allocate nothing: 10k of each cost 0 minor words. *)
let disabled_metrics_cost_nothing () =
  let src =
    {| site s { import p from r in let y = p![7] in io!printi[y] }
       site r { export new p p?(x, k) = k![x * x] } |}
  in
  let r = Api.run_program (Api.parse src) in
  let cl = r.Api.cluster in
  let mx = Cluster.stats cl in
  List.iter
    (fun (key, want) ->
      check Alcotest.int (key ^ " exported") want (Metrics.value mx key))
    [ ("packets", Cluster.packets_sent cl);
      ("bytes", Cluster.bytes_sent cl);
      ("same_node_fast", Cluster.same_node_fast cl);
      ("dead_letters", Cluster.dead_letters cl) ];
  check Alcotest.bool "deliveries counted" true
    (Metrics.value mx "deliveries" > 0);
  check Alcotest.int "one wire sample per frame" (Cluster.frames_sent cl)
    (Stats.Dist.count (Stats.dist mx "wire_ns"));
  let s = Stats.create () in
  let c = Stats.counter s "c" and d = Stats.dist s "d" in
  Stats.Dist.add_int d 0 (* the small-value counts, allocated once *);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Stats.Counter.incr c;
    Stats.Counter.add c i;
    Stats.Dist.add_int d (i land 31)
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "counting allocated %.0f words over 10k bumps" words;
  check Alcotest.int "every sample counted" 10_001 (Stats.Dist.count d)

(* [lease_ns = 0] must be indistinguishable from the seed semantics
   (no lifecycle at all): same outputs, and a bit-identical report.
   The run on the right uses the default configuration — the seed
   behaviour by construction — and the run on the left switches every
   lease knob off explicitly. *)
let lease_off_bit_identical_report () =
  let src =
    {| site s { import p from r in let y = p![7] in io!printi[y] }
       site r { export new p p?(x, k) = k![x * x] } |}
  in
  let prog = Api.parse src in
  let leases_off =
    { Cluster.default_config with
      Cluster.lease_ns = 0; lease_refresh_ns = 0 }
  in
  let ra = Api.run_program ~config:leases_off prog in
  let rb = Api.run_program prog in
  check
    (Alcotest.list (Alcotest.testable Output.pp_event Output.equal_event))
    "outputs identical"
    (List.map snd rb.Api.outputs)
    (List.map snd ra.Api.outputs);
  check Alcotest.string "report bit-identical"
    (Report.to_json (Report.of_cluster rb.Api.cluster))
    (Report.to_json (Report.of_cluster ra.Api.cluster))

(* The SPSC ring's push/pop hot path: unboxed slots and a preallocated
   Empty exception mean a steady-state push/pop pair touches no
   allocator at all — pinned the same way as the disabled singletons,
   in minor words over a revolution-heavy workload.  (try_pop is
   excluded: its Some is the documented cold-path allocation.) *)
let ring_push_pop_zero_alloc () =
  let r = Tyco_support.Spsc_ring.create ~capacity:16 in
  (* warm up: fill/drain once so any one-time work is done *)
  for i = 1 to 8 do
    ignore (Tyco_support.Spsc_ring.try_push r i)
  done;
  for _ = 1 to 8 do
    ignore (Tyco_support.Spsc_ring.pop_exn r)
  done;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    ignore (Tyco_support.Spsc_ring.try_push r i);
    ignore (Tyco_support.Spsc_ring.pop_exn r)
  done;
  (* empty-ring pops go through the preallocated exception *)
  for _ = 1 to 1_000 do
    match Tyco_support.Spsc_ring.pop_exn r with
    | _ -> Alcotest.fail "pop on empty ring returned"
    | exception Tyco_support.Spsc_ring.Empty -> ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf
      "Spsc_ring allocated %.0f words over 100k push/pop pairs (must be 0)"
      words

(* The per-thread sample [Machine.run] records: [Dist.add_int] passes
   its sample unboxed, and past the reservoir cap the replacement draw
   ([Prng.int]) keeps its int64 state unboxed too — neither allocates. *)
let dist_and_prng_zero_alloc () =
  let d = Tyco_support.Stats.Dist.create "pin" in
  (* fill the reservoir past its cap: growth is one-time allocation *)
  for i = 1 to 9_000 do
    Tyco_support.Stats.Dist.add_int d i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Tyco_support.Stats.Dist.add_int d i
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "Dist.add_int allocated %.0f words over 10k samples" words;
  check Alcotest.int "count includes every sample" 19_000
    (Tyco_support.Stats.Dist.count d);
  let g = Tyco_support.Prng.create 7 in
  (* the stream every seeded run depends on, as drawn before the state
     was unboxed *)
  check
    Alcotest.(list int)
    "stream unchanged"
    [ 986583; 955804; 445634; 696395; 335770 ]
    (List.init 5 (fun _ -> Tyco_support.Prng.int g 1_000_000));
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Tyco_support.Prng.int g 1000)
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "Prng.int allocated %.0f words over 10k draws" words

let tests =
  [ Alcotest.test_case "e1 minor words per reduction capped" `Quick
      e1_minor_words_capped;
    Alcotest.test_case "spsc ring push/pop allocates zero words" `Quick
      ring_push_pop_zero_alloc;
    Alcotest.test_case "disabled trace records and allocates nothing"
      `Quick disabled_trace_records_nothing;
    Alcotest.test_case "disabled metrics cost nothing" `Quick
      disabled_metrics_cost_nothing;
    Alcotest.test_case "lease_ns=0 report identical to seed semantics"
      `Quick lease_off_bit_identical_report;
    Alcotest.test_case "dist add_int and prng int allocate zero words"
      `Quick dist_and_prng_zero_alloc ]
