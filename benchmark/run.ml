(* The repository benchmark: source-to-quiescence workloads on the
   simulated, parallel and TCP engines.

     run.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
       one workload, one process: a closed loop with one client (this
       process).  Every iteration builds a fresh engine and goes
       source -> parse -> typecheck -> compile -> load -> run to
       quiescence -> output check.  Prints every metric by name and
       unit, writes a result file, and ends with one JSON line.

     run.exe [--seed N] [--repeat R] [--seconds S] [--out FILE]...
       every workload, each in a child process, R times (seeds N ..
       N+R-1).  With several --out files the runs alternate between
       them, so two sets of the same code can be compared.

   The metric names and units come from BENCHMARK.json in the current
   directory, which must be the repository root. *)

module Api = Dityco.Api
module Cluster = Dityco.Cluster
module Par_runner = Dityco.Par_runner
module Tcp_runner = Dityco.Tcp_runner
module Report = Dityco.Report
module Site = Dityco.Site
module Output = Dityco.Output
module Placement = Dityco.Placement
module Stats = Tyco_support.Stats
module Metrics = Tyco_support.Metrics

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let warmup_ns = 1_000_000_000
let engine_timeout_ms = 5_000

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)

(* [p]-quantile of the first [n] entries of [a], by linear
   interpolation between closest ranks. *)
let quantile a n p =
  if n = 0 then 0.
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median_of l =
  let a = Array.of_list l in
  quantile a (Array.length a) 0.5

(* ------------------------------------------------------------------ *)
(* Spans recorded around each layer call, in preallocated arrays, for
   the traced run.  Kinds: 0 = iteration (the root), the rest are its
   children and share its iteration id. *)

let span_names =
  [| "iteration"; "parse"; "typecheck"; "compile"; "load"; "run"; "check"; "minor_gc" |]

type spans = {
  mutable len : int;
  kind : int array;
  iter : int array;
  t_start : int array;
  t_end : int array;
}

let spans_create cap =
  { len = 0;
    kind = Array.make cap 0;
    iter = Array.make cap 0;
    t_start = Array.make cap 0;
    t_end = Array.make cap 0 }

let span_add sp ~kind ~iter t0 t1 =
  if sp.len < Array.length sp.kind then begin
    let i = sp.len in
    sp.kind.(i) <- kind;
    sp.iter.(i) <- iter;
    sp.t_start.(i) <- t0;
    sp.t_end.(i) <- t1;
    sp.len <- i + 1
  end

(* ------------------------------------------------------------------ *)
(* One iteration.                                                      *)

let base_port =
  (* below the ephemeral range (32768 and up on Linux), so a bind never
     collides with an outgoing connection's local port *)
  24_000 + (2 * (Unix.getpid () mod 4_000))

(* The conditions of [checks] that do not hold. *)
let problems checks = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks

(* The engine call and its clean-finish check, for each engine; returns
   what went wrong, [] for a clean run.  [load] is the engine's set-up
   when it is separate from the run (the simulated cluster); the
   parallel and TCP engines set up inside [run]. *)
let run_engine (w : Workload.t) ~config (p : Workload.program) units
    ~(mark : int -> unit) =
  let outputs got = (Output.same_multiset got p.expected, "outputs differ from the expected multiset") in
  match w.engine with
  | Workload.Sim ->
      let c = Cluster.create ~config () in
      Cluster.load ~placement:w.placement c units;
      mark 4;
      Cluster.run c;
      mark 5;
      problems
        [ outputs (Cluster.output_events c);
          (Cluster.quiescent c, "not quiescent");
          (Cluster.dead_letters c = 0, "dead letters");
          (Cluster.name_service_pending c = 0, "unresolved imports");
          (Cluster.suspected_failures c = [], "suspected failures") ]
  | Workload.Par domains ->
      let r =
        Par_runner.run ~config ~placement:w.placement ~policy:Placement.Mod
          ~max_wall_ms:engine_timeout_ms ~domains units
      in
      mark 5;
      problems
        [ outputs (List.map snd r.Par_runner.outputs);
          (not r.Par_runner.timed_out, "timed out");
          (r.Par_runner.clean, "unclean quiescence");
          (r.Par_runner.dead_letters = 0, "dead letters") ]
  | Workload.Tcp nodes ->
      let r = Tcp_runner.run ~nodes ~base_port ~timeout_ms:engine_timeout_ms units in
      mark 5;
      problems [ outputs r.Tcp_runner.outputs; (not r.Tcp_runner.timed_out, "timed out") ]

let describe = function
  | Api.Error e -> Api.error_message e
  | e -> Printexc.to_string e

(* The first few failures are reported on stderr; all are counted. *)
let failures_reported = ref 0

let report_failure (w : Workload.t) what =
  incr failures_reported;
  if !failures_reported <= 5 then Printf.eprintf "%s: iteration failed: %s\n%!" w.name what

(* Runs one iteration; returns (ok, setup ns, run ns, total ns).  Any
   exception — a parse or type error, a runtime error, a failed bind —
   fails the iteration instead of the benchmark.  [mark k] closes phase
   [k] at the current time. *)
let iteration (w : Workload.t) ~config ~(on_span : int -> int -> int -> unit) =
  let marks = Array.make 8 0 in
  let last = ref 0 in
  let mark k =
    let t = now_ns () in
    marks.(k) <- t;
    on_span k !last t;
    last := t
  in
  (* each iteration starts from an empty minor heap, so the garbage the
     previous one left is not collected inside this one's set-up: with
     it, set-up medians sat between two modes and moved 10% from run to
     run.  The collection counts in the iteration's wall time. *)
  let t_begin = now_ns () in
  Gc.minor ();
  let t0 = now_ns () in
  on_span 7 t_begin t0;
  last := t0;
  let ok =
    try
      let prog = Api.parse w.full.source in
      mark 1;
      ignore (Api.typecheck prog);
      mark 2;
      let units = Api.compile prog in
      mark 3;
      let bad = run_engine w ~config w.full units ~mark in
      mark 6;
      if bad <> [] then report_failure w (String.concat ", " bad);
      bad = []
    with e ->
      report_failure w ("raised " ^ describe e);
      false
  in
  let t_end = now_ns () in
  on_span 0 t_begin t_end;
  let setup_end = if marks.(4) > 0 then marks.(4) else marks.(3) in
  let setup = (if setup_end > 0 then setup_end else t_end) - t0 in
  let run = if marks.(5) > 0 then marks.(5) - setup_end else 0 in
  (ok, setup, run, t_end - t_begin)

(* ------------------------------------------------------------------ *)
(* Checks against sources other than the engine under test.            *)

(* The reduced program must print the generator's multiset under the
   reference interpreter and under the workload's engine; for the
   parallel and TCP workloads the full program must also print it on
   the deterministic simulated engine. *)
let cross_checks (w : Workload.t) =
  let check name f =
    let ok = try f () with e -> prerr_endline (name ^ ": " ^ describe e); false in
    if not ok then Printf.eprintf "%s: check failed: %s\n%!" w.name name;
    ok
  in
  let reference () =
    Output.same_multiset (Api.run_reference (Api.parse w.reduced.source)) w.reduced.expected
  in
  let engine_reduced () =
    run_engine w ~config:w.config w.reduced
      (Api.compile (Api.parse w.reduced.source))
      ~mark:ignore
    = []
  in
  let sim_full () =
    match w.engine with
    | Workload.Sim -> true
    | Workload.Par _ | Workload.Tcp _ ->
        let r =
          Api.run_program ~config:w.config ~placement:w.placement
            (Api.parse w.full.source)
        in
        Output.same_multiset (List.map snd r.Api.outputs) w.full.expected
  in
  (* every check runs, so a failure report names all that failed *)
  List.for_all Fun.id
    (List.map
       (fun (name, f) -> check name f)
       [ ("reference interpreter", reference);
         ("engine, reduced program", engine_reduced);
         ("simulated engine, full program", sim_full) ])

(* ------------------------------------------------------------------ *)
(* Per-layer probes for the traced run.                                *)

let null_source =
  {| site a { export new x x?(v) = io!printi[v] }
     site b { import x from a in x![1] } |}

(* Median wall ms of [f] over [k] calls. *)
let median_ms k f =
  median_of
    (List.init k (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. 1e6))

(* Each engine's fixed cost: a trivial two-site program, run to
   quiescence.  The two-domain engines are N/A on a one-core host. *)
let null_runs () =
  let units = Api.compile (Api.parse null_source) in
  let cluster () =
    let c = Cluster.create () in
    Cluster.load c units;
    Cluster.run c
  in
  let par () = ignore (Par_runner.run ~max_wall_ms:engine_timeout_ms ~domains:2 units) in
  let tcp () =
    ignore (Tcp_runner.run ~nodes:2 ~base_port ~timeout_ms:engine_timeout_ms units)
  in
  let two_domains = Domain.recommended_domain_count () >= 2 in
  ( [ ("cluster.null_run_ms", median_ms 21 cluster) ]
    @ (if two_domains then
         [ ("par_runner.null_run_ms", median_ms 11 par);
           ("tcp_runner.null_run_ms", median_ms 5 tcp) ]
       else []),
    if two_domains then [] else [ "par_runner.null_run_ms"; "tcp_runner.null_run_ms" ] )

let sum_sites sites f = List.fold_left (fun acc s -> acc + f s) 0 sites

let counter site name = Stats.counter_value (Site.stats site) name

(* Exact pooled mean of one per-site distribution. *)
let pooled_mean sites name =
  let n, total =
    List.fold_left
      (fun (n, total) s ->
        let d = Stats.dist (Site.stats s) name in
        let c = Stats.Dist.count d in
        (n + c, total +. (float_of_int c *. Stats.Dist.mean d)))
      (0, 0.) sites
  in
  if n = 0 then 0. else total /. float_of_int n

let pct f = function None -> 0. | Some s -> f s

(* Mean ns per packet to encode and decode the run's packet log; N/A
   when the run sent no packet. *)
let codec_layers packets =
  let n = List.length packets in
  if n = 0 then ([], [ "packet.encode_ns"; "packet.decode_ns" ])
  else begin
    let reps = max 1 (20_000 / n) in
    let strings = List.map Tyco_net.Packet.to_string packets in
    let time f =
      let t0 = now_ns () in
      for _ = 1 to reps do
        f ()
      done;
      float_of_int (now_ns () - t0) /. float_of_int (reps * n)
    in
    ( [ ("packet.encode_ns",
          time (fun () -> List.iter (fun p -> ignore (Tyco_net.Packet.to_string p)) packets));
        ("packet.decode_ns",
          time (fun () -> List.iter (fun s -> ignore (Tyco_net.Packet.of_string s)) strings)) ],
      [] )
  end

(* The simulated layers (Machine, Site, the Cluster transport, Simnet,
   Export_table), read from one deterministic-engine run of the full
   program.  For the parallel and TCP workloads this is the same
   program on the simulated engine: the counts belong to the program,
   not to the engine that timed it. *)
let sim_layers (w : Workload.t) units =
  let ops = float_of_int w.full.ops in
  let c = Cluster.create ~config:w.config () in
  Cluster.load ~placement:w.placement c units;
  Cluster.run c;
  let rep = Report.of_cluster c in
  let sites = Cluster.sites c in
  let cstats = Cluster.stats c in
  let packets = float_of_int rep.Report.packets in
  let per_packet x = if packets = 0. then 0. else float_of_int x /. packets in
  let b = rep.Report.breakdown and m = rep.Report.memory in
  let codec, codec_na = codec_layers (List.map snd (Cluster.packet_trace c)) in
  let instructions = sum_sites sites (fun s -> counter s "instructions") in
  ( instructions,
    codec
    @ [ ("machine.instructions_per_op", float_of_int instructions /. ops);
      ("machine.threads_per_op", float_of_int (sum_sites sites (fun s -> counter s "threads")) /. ops);
      ("machine.msgs_parked_per_op",
        float_of_int (sum_sites sites (fun s -> counter s "msgs_parked")) /. ops);
      ("site.thread_len_mean", pooled_mean sites "thread_len");
      ("site.runq_depth_mean", pooled_mean sites "runq_depth");
      ("site.fetches", float_of_int (sum_sites sites (fun s -> counter s "fetches")));
      ("site.links", float_of_int (sum_sites sites (fun s -> counter s "links")));
      ("site.execute_p50_ns", pct (fun s -> s.Stats.Dist.s_p50) b.Report.b_execute);
      ("site.queue_wait_p50_ns", pct (fun s -> s.Stats.Dist.s_p50) b.Report.b_queue_wait);
      ("site.queue_wait_p99_ns", pct (fun s -> s.Stats.Dist.s_p99) b.Report.b_queue_wait);
      ("site.lease_refreshes_per_op", float_of_int m.Report.mem_lease_refreshes /. ops);
      ("cluster.packets_per_op", packets /. ops);
      ("cluster.bytes_per_op", float_of_int rep.Report.bytes /. ops);
      ("cluster.frames_per_packet", per_packet rep.Report.frames_sent);
      ("cluster.batch_fill_mean", rep.Report.batch_fill_mean);
      ("cluster.acks_per_packet", per_packet (Stats.counter_value cstats "acks"));
      ("cluster.acks_piggybacked", float_of_int rep.Report.acks_piggybacked);
      ("cluster.retries", float_of_int (Stats.counter_value cstats "retries"));
      ("cluster.dupes_suppressed", float_of_int (Stats.counter_value cstats "dupes_suppressed"));
      ("cluster.same_node_fast_per_op", float_of_int rep.Report.same_node_fast /. ops);
      ("cluster.wire_p50_ns", pct (fun s -> s.Stats.Dist.s_p50) b.Report.b_wire);
      ("cluster.retransmit_p99_ns", pct (fun s -> s.Stats.Dist.s_p99) b.Report.b_retransmit);
      ("cluster.flush_wait_p99_ns", pct (fun s -> s.Stats.Dist.s_p99) b.Report.b_flush_wait);
      ("simnet.events_per_op", float_of_int rep.Report.sim_events /. ops);
      ("simnet.virtual_ms", float_of_int rep.Report.virtual_ns /. 1e6);
      ("export_table.chan_live_end", float_of_int m.Report.mem_chan_live);
      ("export_table.chan_allocated_per_op", float_of_int m.Report.mem_chan_allocated /. ops);
      ("export_table.ids_reclaimed_per_op", float_of_int m.Report.mem_ids_reclaimed /. ops) ],
    codec_na )

let par_layer_names =
  [ "par_runner.handoffs_per_op"; "par_runner.ring_batch_fill_mean";
    "par_runner.parks_per_op"; "par_runner.drains"; "par_runner.exec_imbalance";
    "spsc_ring.hiwater_max"; "par_runner.shard_idle_frac" ]

let tcp_layer_names =
  [ "tcp_runner.packets_per_op"; "tcp_runner.parks_per_op"; "tcp_runner.connect_retries" ]

(* The engine's own layers, from one instrumented run of that engine:
   Par_runner and Spsc_ring with 1 ms snapshots, Tcp_runner with its
   metrics registry on.  Names of the other engine read as N/A. *)
let engine_layers (w : Workload.t) units =
  let ops = float_of_int w.full.ops in
  match w.engine with
  | Workload.Sim -> ([], par_layer_names @ tcp_layer_names)
  | Workload.Par domains ->
      let prev = ref [||] and idle = ref 0 and samples = ref 0 in
      let on_snapshot (sn : Par_runner.snapshot) =
        let ex = sn.Par_runner.sn_executed in
        if Array.length !prev = Array.length ex then
          Array.iteri
            (fun i e ->
              incr samples;
              if e = !prev.(i) then incr idle)
            ex;
        prev := Array.copy ex
      in
      let r =
        Par_runner.run ~config:w.config ~placement:w.placement ~policy:Placement.Mod
          ~max_wall_ms:engine_timeout_ms ~on_snapshot ~snapshot_every_ms:1 ~domains
          units
      in
      let shards = Array.to_list r.Par_runner.shard_stats in
      ( [ ("par_runner.handoffs_per_op", float_of_int r.Par_runner.handoffs /. ops);
          ("par_runner.ring_batch_fill_mean", r.Par_runner.ring_batch_fill_mean);
          ("par_runner.parks_per_op", float_of_int r.Par_runner.parks /. ops);
          ("par_runner.drains",
            float_of_int (List.fold_left (fun a s -> a + s.Par_runner.ss_drains) 0 shards));
          ("par_runner.exec_imbalance",
            Placement.imbalance
              (Array.map (fun s -> float_of_int s.Par_runner.ss_events) r.Par_runner.shard_stats));
          ("spsc_ring.hiwater_max",
            float_of_int (List.fold_left (fun a s -> max a s.Par_runner.ss_ring_hiwater) 0 shards));
          ("par_runner.shard_idle_frac",
            if !samples = 0 then 0. else float_of_int !idle /. float_of_int !samples) ],
        tcp_layer_names )
  | Workload.Tcp nodes ->
      let r =
        Tcp_runner.run ~nodes ~base_port ~timeout_ms:engine_timeout_ms ~metrics:true units
      in
      ( [ ("tcp_runner.packets_per_op", float_of_int r.Tcp_runner.packets /. ops);
          ("tcp_runner.parks_per_op", float_of_int r.Tcp_runner.parks /. ops);
          ("tcp_runner.connect_retries",
            float_of_int (Metrics.value r.Tcp_runner.metrics "connect_retries")) ],
        par_layer_names )

(* Per-kind self times (ms) of the recorded spans, per-iteration child
   coverage, and the Chrome-trace rendering. *)
let span_layers sp =
  let nk = Array.length span_names in
  let self = Array.make nk [] in
  let min_cov = ref 1. in
  (* spans of one iteration are contiguous: children first, root last *)
  let i = ref 0 in
  while !i < sp.len do
    let j = ref !i in
    while !j < sp.len - 1 && sp.kind.(!j) <> 0 do incr j done;
    let root = !j in
    let children = ref 0 in
    for k = !i to root - 1 do
      let d = sp.t_end.(k) - sp.t_start.(k) in
      children := !children + d;
      self.(sp.kind.(k)) <- (float_of_int d /. 1e6) :: self.(sp.kind.(k))
    done;
    let total = sp.t_end.(root) - sp.t_start.(root) in
    self.(0) <- (float_of_int (total - !children) /. 1e6) :: self.(0);
    if total > 0 then
      min_cov := Float.min !min_cov (float_of_int !children /. float_of_int total);
    i := root + 1
  done;
  (self, !min_cov)

let chrome_trace sp =
  let t_base = if sp.len > 0 then sp.t_start.(0) else 0 in
  let us t = float_of_int (t - t_base) /. 1e3 in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (List.init sp.len (fun i ->
               Json.Obj
                 [ ("name", Json.Str span_names.(sp.kind.(i)));
                   ("cat", Json.Str "bench");
                   ("ph", Json.Str "X");
                   ("ts", Json.Num (us sp.t_start.(i)));
                   ("dur", Json.Num (us sp.t_end.(i) -. us sp.t_start.(i)));
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       [ ("iteration", Json.Num (float_of_int sp.iter.(i)));
                         ( "parent",
                           if sp.kind.(i) = 0 then Json.Null else Json.Str "iteration" ) ] ) ])) );
      ("displayTimeUnit", Json.Str "ms") ]

(* ------------------------------------------------------------------ *)
(* Provenance.                                                          *)

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a git work tree. *)
let git_commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None -> (
          try
            let ic = open_in ".git/packed-refs" in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                let rec find () =
                  let line = input_line ic in
                  match String.split_on_char ' ' line with
                  | [ c; r ] when r = ref_ -> c
                  | _ -> find ()
                in
                find ())
          with _ -> "unknown"))
  | Some c -> c

let provenance ~seed ~seconds ~trace =
  [ ("commit", Json.Str (git_commit ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("seed", Json.Num (float_of_int seed));
    ("seconds", Json.Num (float_of_int seconds));
    ("trace", Json.Bool trace) ]

(* ------------------------------------------------------------------ *)
(* The metric list (names and units) from BENCHMARK.json.              *)

let spec_metrics key =
  let spec = Json.read_file "BENCHMARK.json" in
  List.map
    (fun m -> (Json.to_str (Json.get "name" m), Json.to_str (Json.get "unit" m)))
    (Json.to_list (Json.get key spec))

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* One workload in this process.                                       *)

let run_one ~name ~seed ~seconds ~trace ~out ~trace_dir =
  let wanted = spec_metrics (if trace then "per_layer" else "end_to_end") in
  let w = Workload.make name ~seed in
  let nproc = Domain.recommended_domain_count () in
  if Workload.domains w > nproc then begin
    Printf.eprintf "%s needs %d domains but this host has %d cores; refusing to run\n"
      name (Workload.domains w) nproc;
    exit 2
  end;
  let config_for iter =
    { w.config with Cluster.seed = Hashtbl.hash (w.config.Cluster.seed, iter) }
  in
  let no_span _ _ _ = () in
  (* warm-up: caches, lazy set-up and the heap settle; discarded *)
  let t_warm = now_ns () in
  let warm_iters = ref 0 in
  while now_ns () - t_warm < warmup_ns || !warm_iters < 2 do
    ignore (iteration w ~config:(config_for (- !warm_iters - 1)) ~on_span:no_span);
    incr warm_iters
  done;
  let per_iter = float_of_int (now_ns () - t_warm) /. float_of_int !warm_iters in
  (* sample arrays sized before timing starts, so the loop itself does
     not allocate them *)
  let cap = int_of_float (2. *. float_of_int seconds *. 1e9 /. per_iter) + 64 in
  let setup = Array.make cap 0. and run = Array.make cap 0. and total = Array.make cap 0. in
  let heap = Array.make cap 0. in
  let ok = Bytes.make cap '\000' in
  let sp = spans_create (if trace then Array.length span_names * cap else 0) in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let t_start = now_ns () in
  let budget = seconds * 1_000_000_000 in
  let n = ref 0 in
  while !n < cap && now_ns () - t_start < budget do
    let i = !n in
    (* in the traced run, every other iteration records spans; the
       others give the untraced baseline for the overhead *)
    let on_span =
      if trace && i land 1 = 1 then fun kind t0 t1 -> span_add sp ~kind ~iter:i t0 t1
      else no_span
    in
    let good, s, r, t = iteration w ~config:(config_for i) ~on_span in
    setup.(i) <- float_of_int s /. 1e9;
    run.(i) <- float_of_int r /. 1e6;
    total.(i) <- float_of_int t /. 1e6;
    heap.(i) <- float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6;
    if good then Bytes.set ok i '\001';
    n := i + 1
  done;
  let elapsed = float_of_int (now_ns () - t_start) /. 1e9 in
  let gc1 = Gc.quick_stat () in
  let n = !n in
  let good_iters = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr good_iters) ok;
  let checks_ok = cross_checks w in
  let ops = w.full.ops in
  let attempted = n * ops in
  let failed = if checks_ok then (n - !good_iters) * ops else attempted in
  let correct = checks_ok && !good_iters = n in
  let values =
    if not trace then
      (* medians over iterations, so a second or two of host noise in a
         run does not move its numbers; the run-time tail is a per-layer
         metric (engine.run_ms_p90) because on a two-core host it
         swings with the TCP engine's scheduling *)
      [ ("ops_per_s", float_of_int ops /. (quantile total n 0.5 /. 1e3));
        ("run_ms_p50", quantile run n 0.5);
        ("setup_s", quantile setup n 0.5);
        ("heap_mb_p90", quantile heap n 0.9) ]
    else begin
      let units = Api.compile (Api.parse w.full.source) in
      let self, coverage = span_layers sp in
      let self_ms k = median_of self.(k) in
      let instructions, sim, sim_na = sim_layers w units in
      let engine, engine_na = engine_layers w units in
      let null, null_na = null_runs () in
      let na = sim_na @ engine_na @ null_na in
      let traced, untraced =
        List.partition (fun i -> i land 1 = 1) (List.init n Fun.id)
      in
      let total_p50 l = median_of (List.map (fun i -> total.(i)) l) in
      let per_op x = x /. float_of_int attempted in
      let load_ms =
        match w.engine with
        | Workload.Sim -> self_ms 4
        | Workload.Par _ | Workload.Tcp _ ->
            median_ms 21 (fun () ->
                Cluster.load ~placement:w.placement (Cluster.create ~config:w.config ()) units)
      in
      let values =
        [ ("parser.ms", self_ms 1);
          ("infer.ms", self_ms 2);
          ("compile.ms", self_ms 3);
          ("cluster.load_ms", load_ms);
          ("engine.run_ms", self_ms 5);
          ("engine.run_ms_p90", quantile run n 0.9);
          ("bench.check_ms", self_ms 6);
          ( "compile.instrs",
            float_of_int
              (List.fold_left (fun a (_, u) -> a + Tyco_compiler.Block.instr_count u) 0 units) );
          ( "compile.code_bytes",
            float_of_int
              (List.fold_left (fun a (_, u) -> a + Tyco_compiler.Bytecode.byte_size u) 0 units) );
          ("machine.ns_per_instruction", self_ms 5 *. 1e6 /. float_of_int instructions);
          ("gc.minor_words_per_op", per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("gc.promoted_words_per_op", per_op (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
          ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
          ("trace.coverage_min", coverage);
          ("trace.overhead_ms", total_p50 traced -. total_p50 untraced) ]
        @ null @ sim @ engine
        @ List.map (fun k -> (k, 0.)) na
      in
      mkdir_p trace_dir;
      let stem = Filename.concat trace_dir (Printf.sprintf "%s-s%d" name seed) in
      Json.write_file (stem ^ ".trace.json") (chrome_trace sp);
      Json.write_file (stem ^ ".layers.json")
        (Json.Obj
           [ ("workload", Json.Str name);
             ("seed", Json.Num (float_of_int seed));
             ( "self_ms_p50",
               Json.Obj
                 (Array.to_list
                    (Array.mapi (fun k name -> (name, Json.Num (median_of self.(k)))) span_names)) );
             ("coverage_min", Json.Num coverage);
             ("na", Json.Arr (List.map (fun k -> Json.Str k) na));
             ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) values)) ]);
      Printf.printf "trace: %s.trace.json, %s.layers.json (%d spans, child coverage >= %.4f%s)\n"
        stem stem sp.len coverage
        (if coverage < 0.95 then " -- BELOW 0.95" else "");
      values
    end
  in
  let metrics =
    List.map
      (fun (k, unit_) ->
        match List.assoc_opt k values with
        | Some v -> (k, v, unit_)
        | None -> failwith ("metric not computed: " ^ k))
      wanted
  in
  Printf.printf "%s seed %d: %d iterations in %.2f s (%d warm-up), %d ops each, %d failed\n"
    name seed n elapsed !warm_iters ops failed;
  List.iter (fun (k, v, u) -> Printf.printf "  %-36s %16.6g %s\n" k v u) metrics;
  let metrics_json =
    Json.Obj
      (List.map
         (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
         metrics)
  in
  let run_json =
    Json.Obj
      [ ("workload", Json.Str name);
        ("seed", Json.Num (float_of_int seed));
        ("trace", Json.Bool trace);
        ("iterations", Json.Num (float_of_int n));
        ("warmup_iterations", Json.Num (float_of_int !warm_iters));
        ("ops_per_iteration", Json.Num (float_of_int ops));
        ("timed_s", Json.Num elapsed);
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics_json) ]
  in
  mkdir_p (Filename.dirname out);
  Json.write_file out
    (Json.Obj (provenance ~seed ~seconds ~trace @ [ ("runs", Json.Arr [ run_json ]) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json) ]))

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own process.                            *)

let run_all ~seed ~repeat ~seconds ~trace ~outs =
  let sets = Array.of_list outs in
  let runs = Array.make (Array.length sets) [] in
  let tmp = Filename.concat "benchmark/out" (Printf.sprintf "child-%d.json" (Unix.getpid ())) in
  mkdir_p (Filename.dirname tmp);
  for r = 0 to repeat - 1 do
    (* rotate which set goes first, so neither always runs warmer *)
    let nsets = Array.length sets in
    for k = 0 to nsets - 1 do
      let set = (k + r) mod nsets in
      List.iter
        (fun name ->
          let args =
            [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int (seed + r);
               "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
               "--out"; tmp |]
          in
          Printf.eprintf "[%s] run %d/%d: %s seed %d\n%!" sets.(set) (r + 1) repeat name (seed + r);
          let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 ->
              runs.(set) <- runs.(set) @ Json.to_list (Json.get "runs" (Json.read_file tmp))
          | _ ->
              Printf.eprintf "%s seed %d: child failed\n%!" name (seed + r);
              exit 1)
        Workload.names
    done
  done;
  (try Sys.remove tmp with Sys_error _ -> ());
  Array.iteri
    (fun set path ->
      mkdir_p (Filename.dirname path);
      Json.write_file path
        (Json.Obj
           (provenance ~seed ~seconds ~trace
           @ [ ("repeat", Json.Num (float_of_int repeat)); ("runs", Json.Arr runs.(set)) ])))
    sets;
  (* summary: median of each metric per workload, first set *)
  let all = runs.(0) in
  List.iter
    (fun name ->
      let mine = List.filter (fun r -> Json.to_str (Json.get "workload" r) = name) all in
      Printf.printf "%s (%d runs)\n" name (List.length mine);
      match mine with
      | [] -> ()
      | first :: _ ->
          List.iter
            (fun (k, m) ->
              let v =
                median_of
                  (List.map (fun r -> Json.to_num (Json.get "value" (Json.get k (Json.get "metrics" r)))) mine)
              in
              Printf.printf "  %-36s %16.6g %s\n" k v (Json.to_str (Json.get "unit" m)))
            (Json.to_assoc (Json.get "metrics" first)))
    Workload.names;
  Printf.printf "wrote %s\n" (String.concat ", " outs)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref false in
  let outs = ref [] and repeat = ref 1 and trace_dir = ref "benchmark/out" in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S timed seconds per run (default 10)");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 1 = traced run reporting the per-layer metrics" );
      ("--out", Arg.String (fun s -> outs := !outs @ [ s ]), "FILE result file (repeatable)");
      ("--repeat", Arg.Set_int repeat, "R runs per workload, seeds N..N+R-1 (all-workloads mode)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where the traced run writes spans") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "run.exe [options]";
  if not (Sys.file_exists "BENCHMARK.json") then begin
    prerr_endline "run.exe: BENCHMARK.json not found; run from the repository root";
    exit 2
  end;
  match !workload with
  | Some name ->
      if not (List.mem name Workload.names) then begin
        Printf.eprintf "unknown workload %s (one of: %s)\n" name
          (String.concat ", " Workload.names);
        exit 2
      end;
      let out =
        match !outs with
        | [ o ] -> o
        | [] ->
            Printf.sprintf "benchmark/out/%s-s%d%s.json" name !seed
              (if !trace then "-trace" else "")
        | _ ->
            prerr_endline "run.exe: one --out per single-workload run";
            exit 2
      in
      run_one ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~out ~trace_dir:!trace_dir
  | None ->
      let outs =
        if !outs = [] then [ Printf.sprintf "benchmark/out/all-s%d.json" !seed ] else !outs
      in
      run_all ~seed:!seed ~repeat:!repeat ~seconds:!seconds ~trace:!trace ~outs
