(* The experiment harness: one section per experiment in DESIGN.md's
   index (E1–E21, and a traced E1 run).  The paper (CLUSTER 2000) has
   no numbered tables — each experiment reproduces a figure or a
   quantitative claim from the text; EXPERIMENTS.md records the
   paper-vs-measured comparison.

   Of the first ten, the wall-clock measurements (E1, E2, E7, E8) use
   Bechamel on this host, and the distributed-behaviour measurements
   (E3–E6, E9, E10) report the deterministic virtual clock of the
   simulated cluster. *)

module Api = Dityco.Api
module Cluster = Dityco.Cluster
module Site = Dityco.Site
module Output = Dityco.Output
module Report = Dityco.Report
module Stats = Tyco_support.Stats
module Latency = Tyco_net.Latency
module Simnet = Tyco_net.Simnet

let section id title =
  Format.printf "@.=== %s: %s ===@." id title

let row fmt = Format.printf fmt

(* ------------------------------------------------------------------ *)
(* Modes and machine-readable output.

   --smoke   reduced iteration counts (CI-friendly wall clock)
   --json    additionally write the recorded measurements as a flat
             JSON object (default BENCH_PR18.json; override with --out)

   Keys are flat ("e1_vm_ns_per_reduction") so shell pipelines can
   extract them without a JSON parser. *)

let smoke = ref false
let json_mode = ref false
let json_path = ref "BENCH_PR18.json"
let json_kvs : (string * string) list ref = ref [] (* newest first *)

let record k v = json_kvs := (k, v) :: !json_kvs
let record_f k v =
  record k (if Float.is_finite v then Printf.sprintf "%.1f" v else "null")
let record_i k v = record k (string_of_int v)

let write_json () =
  let oc = open_out !json_path in
  output_string oc "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",";
      output_string oc (Printf.sprintf "\n  \"%s\": %s" k v))
    (List.rev !json_kvs);
  output_string oc "\n}\n";
  close_out oc;
  Format.printf "@.wrote %s (%d measurements)@." !json_path
    (List.length !json_kvs)

(* ------------------------------------------------------------------ *)
(* Bechamel helper: estimated ns per run of a thunk.                   *)

let bench_ns name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let limit = if !smoke then 50 else 300 in
  let quota = Time.second (if !smoke then 0.1 else 0.4) in
  let cfg = Benchmark.cfg ~limit ~quota ~kde:None () in
  let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  match Hashtbl.fold (fun _ v acc -> v :: acc) analyzed [] with
  | [ est ] -> (
      match Analyze.OLS.estimates est with Some [ ns ] -> ns | _ -> nan)
  | _ -> nan

(* Minor-heap words allocated per run of a thunk — the allocation-rate
   side of the hot-path story (ns/run alone hides GC pressure). *)
let minor_words_per_run f =
  ignore (f ()); (* warm-up: one-time setup allocations don't count *)
  let runs = if !smoke then 3 else 10 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (f ())
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* ------------------------------------------------------------------ *)
(* Workload sources.                                                   *)

(* A single-site workload: a counter object driven through [n]
   synchronous increments (~2 reductions per step). *)
let counter_src n =
  Printf.sprintf
    {| def Counter(self, acc) =
         self?{ bump(k) = (k![acc + 1] | Counter[self, acc + 1]) }
       in def Driver(c, n) =
         if n == 0 then io!printi[n]
         else new k (c!bump[k] | k?(v) = Driver[c, n - 1])
       in new c (Counter[c, 0] | Driver[c, %d]) |}
    n

(* Two-site ping-pong with a persistent server loop. *)
let pingpong_src rounds =
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

let run ?config ?placement ?until src =
  Api.run_program ?config ?placement ?until (Api.parse src)

(* ------------------------------------------------------------------ *)
(* E1 — byte-code VM vs reference interpreter.                         *)

let e1 () =
  section "E1"
    "byte-code VM vs calculus interpreter (paper: the VM design is \
     compact and efficient)";
  let n = 200 in
  let prog = Api.parse (counter_src n) in
  let run_vm () = ignore (Api.run_program ~typecheck:false prog) in
  let vm_ns = bench_ns "vm" run_vm in
  let ref_ns = bench_ns "ref" (fun () -> ignore (Api.run_reference prog)) in
  let vm_words = minor_words_per_run run_vm in
  let reductions = float_of_int (2 * n) in
  row "workload: counter, %d synchronous bumps (~%.0f reductions)@." n
    reductions;
  row "  %-28s %12.0f ns/run  %8.1f ns/reduction  %10.0f minor-words/run@."
    "byte-code VM (full cluster)" vm_ns (vm_ns /. reductions) vm_words;
  row "  %-28s %12.0f ns/run  %8.1f ns/reduction@." "reference interpreter"
    ref_ns (ref_ns /. reductions);
  row "  speedup: %.1fx@." (ref_ns /. vm_ns);
  record_f "e1_vm_ns_per_run" vm_ns;
  record_f "e1_vm_ns_per_reduction" (vm_ns /. reductions);
  record_f "e1_ref_ns_per_reduction" (ref_ns /. reductions);
  record_f "e1_speedup" (ref_ns /. vm_ns);
  record_f "e1_vm_minor_words_per_run" vm_words

(* ------------------------------------------------------------------ *)
(* E2 — byte-code compactness.                                         *)

let e2 () =
  section "E2"
    "byte-code compactness (paper: assembly/byte-code mapping almost \
     one-to-one)";
  let programs =
    [ ( "cell",
        {| def Cell(self, v) =
             self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
           in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = io!printi[w])) |}
      );
      ("counter", counter_src 100);
      ("pingpong", pingpong_src 10);
      ( "seti",
        {| site seti {
             new database
             def DB(self, n) = self?{ chunk(k) = k![n] | DB[self, n + 1] }
             in export def Install(cl) = Go[cl]
                and Go(cl) = let d = database!chunk[] in (cl![d] | Go[cl])
             in DB[database, 0] }
           site client {
             def L(me) = me?(d) = (io!printi[d] | L[me])
             in new me (L[me] | import Install from seti in Install[me]) } |}
      ) ]
  in
  row "  %-10s %8s %8s %8s %8s %12s@." "program" "src-B" "AST" "instrs"
    "code-B" "B/AST-node";
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let units = Api.compile prog in
      let ast_nodes =
        List.fold_left
          (fun acc (s : Tyco_syntax.Ast.site_decl) ->
            acc + Tyco_syntax.Ast.size s.s_proc)
          0 prog.Tyco_syntax.Ast.sites
      in
      let stats = List.map (fun (_, u) -> Tyco_compiler.Disasm.stats u) units in
      let instrs =
        List.fold_left
          (fun a (s : Tyco_compiler.Disasm.stats) -> a + s.n_instrs)
          0 stats
      in
      let bytes =
        List.fold_left
          (fun a (s : Tyco_compiler.Disasm.stats) -> a + s.n_bytes)
          0 stats
      in
      row "  %-10s %8d %8d %8d %8d %12.2f@." name (String.length src)
        ast_nodes instrs bytes
        (float_of_int bytes /. float_of_int ast_nodes);
      record_i (Printf.sprintf "e2_%s_code_bytes" name) bytes;
      record_i (Printf.sprintf "e2_%s_instrs" name) instrs)
    programs

(* ------------------------------------------------------------------ *)
(* E3 — remote communication: two-step shipment.                       *)

let e3 () =
  section "E3"
    "remote communication cost (paper §3: asynchronous ship + local \
     rendez-vous)";
  let rounds = 50 in
  let r = run (pingpong_src rounds) in
  let rtt = float_of_int r.Api.virtual_ns /. float_of_int rounds in
  row "  %d RPC round trips over the Myrinet model@." rounds;
  row "  total %d ns, %.0f ns/round-trip (link one-way latency %d ns)@."
    r.Api.virtual_ns rtt Latency.myrinet.Latency.latency_ns;
  row "  packets: %d (2 data packets per round trip + name service)@."
    r.Api.packets;
  row "  lower bound 2 x one-way = %d ns; overhead = %.1f%%@."
    (2 * Latency.myrinet.Latency.latency_ns)
    ((rtt /. float_of_int (2 * Latency.myrinet.Latency.latency_ns) -. 1.)
    *. 100.)

(* ------------------------------------------------------------------ *)
(* E4 — link-model hierarchy (Fig. 1 platform).                        *)

let e4 () =
  section "E4"
    "link hierarchy: shared memory < Myrinet < Fast Ethernet (paper §5, \
     same-node optimization)";
  let rounds = 50 in
  let src = pingpong_src rounds in
  let with_topo name topology placement =
    let config = { Cluster.default_config with Cluster.topology } in
    let r = run ~config ?placement src in
    row "  %-24s %10.0f ns/round-trip@." name
      (float_of_int r.Api.virtual_ns /. float_of_int rounds)
  in
  with_topo "same node (shared mem)" Simnet.default_topology
    (Some (fun _ -> 0));
  with_topo "cross node (Myrinet)" Simnet.default_topology None;
  with_topo "cross node (FastEther)"
    { Simnet.default_topology with Simnet.cluster = Latency.fast_ethernet }
    None

(* ------------------------------------------------------------------ *)
(* E5 — latency hiding by context switching.                           *)

let e5 () =
  section "E5"
    "latency hiding: concurrent client threads overlap remote calls \
     (paper §1/§5)";
  let calls_per_client = 20 in
  row "  each client performs %d RPCs; server on another node@."
    calls_per_client;
  row "  %-10s %14s %18s@." "clients" "virtual ns" "calls/ms (virtual)";
  List.iter
    (fun nclients ->
      let spawn_clients =
        String.concat " | "
          (List.init nclients (fun i -> Printf.sprintf "C[%d]" i))
      in
      let src =
        Printf.sprintf
          {| site server {
               def Serve(svc) = svc?{ ping(v, k) = (k![v] | Serve[svc]) }
               in export new svc Serve[svc] }
             site client {
               import svc from server in
               def C(id) = Go[id, %d]
               and Go(id, n) =
                 if n == 0 then io!printi[id]
                 else let v = svc!ping[n] in Go[id, n - 1]
               in (%s) } |}
          calls_per_client spawn_clients
      in
      let r = run src in
      let calls = nclients * calls_per_client in
      row "  %-10d %14d %18.1f@." nclients r.Api.virtual_ns
        (float_of_int calls /. (float_of_int r.Api.virtual_ns /. 1e6)))
    [ 1; 2; 4; 8; 16; 32 ];
  row "  (throughput grows with concurrency until the link saturates)@."

(* ------------------------------------------------------------------ *)
(* E6 — code fetching vs code shipping, by applet size.                *)

let e6 () =
  section "E6"
    "applet deployment: FETCH (download class) vs SHIP (migrate object), \
     by code size (paper §4)";
  let body k =
    String.concat " | "
      (List.init k (fun i -> Printf.sprintf "io!printi[x + %d]" i))
  in
  row "  %-8s | %12s %8s | %12s %8s@." "applet" "fetch(ns)" "bytes"
    "ship(ns)" "bytes";
  List.iter
    (fun k ->
      let fetch_src =
        Printf.sprintf
          {| site server { export def Applet(x) = (%s) in nil }
             site client { import Applet from server in Applet[1] } |}
          (body k)
      in
      let ship_src =
        Printf.sprintf
          {| site server {
               def S(self) = self?{ get(p) = ((p?(x) = (%s)) | S[self]) }
               in export new srv S[srv] }
             site client { import srv from server in
                           new p (srv!get[p] | p![1]) } |}
          (body k)
      in
      let fetch = run fetch_src in
      let ship = run ship_src in
      let first_output r =
        match r.Api.outputs with (ts, _) :: _ -> ts | [] -> -1
      in
      row "  k=%-6d | %12d %8d | %12d %8d@." k (first_output fetch)
        fetch.Api.bytes (first_output ship) ship.Api.bytes)
    [ 1; 8; 32; 128 ];
  row "  (the shipped applet prints at the server: its io is lexically \
       bound there)@."

(* ------------------------------------------------------------------ *)
(* E7 — thread granularity.                                            *)

let e7 () =
  section "E7"
    "thread granularity (paper §1: a few tens of byte-code instructions \
     per thread)";
  let programs =
    [ ("counter", counter_src 100);
      ("pingpong", pingpong_src 30);
      ( "ring",
        {| new a, b, c
           (def Fa(x, y) = x?(t) = ((if t == 0 then io!printi[0] else y![t - 1]) | Fa[x, y])
            in (Fa[a, b] | Fa[b, c] | Fa[c, a] | a![300])) |} ) ]
  in
  row "  %-10s %8s %8s %8s %8s %8s@." "program" "threads" "mean" "p50" "p95"
    "max";
  List.iter
    (fun (name, src) ->
      let r = run src in
      let sites = Cluster.sites r.Api.cluster in
      (* report the busiest site *)
      let site =
        List.fold_left
          (fun best s ->
            let c v =
              Stats.Counter.value (Stats.counter (Site.stats v) "threads")
            in
            if c s > c best then s else best)
          (List.hd sites) sites
      in
      let d = Stats.dist (Site.stats site) "thread_len" in
      row "  %-10s %8d %8.1f %8.0f %8.0f %8.0f@." name (Stats.Dist.count d)
        (Stats.Dist.mean d)
        (Stats.Dist.percentile d 0.5)
        (Stats.Dist.percentile d 0.95)
        (Stats.Dist.max d))
    programs

(* ------------------------------------------------------------------ *)
(* E8 — name service costs.                                            *)

let e8 () =
  section "E8"
    "name service: registration/lookup micro-cost and import latency \
     (paper §5)";
  let ns = Tyco_net.Nameservice.create () in
  let i = ref 0 in
  let reg_ns =
    bench_ns "register" (fun () ->
        incr i;
        let r =
          Tyco_support.Netref.make ~kind:Tyco_support.Netref.Channel
            ~heap_id:!i ~site_id:0 ~ip:0
        in
        ignore
          (Tyco_net.Nameservice.register_id ns ~site:"s"
             ~name:(string_of_int (!i land 1023))
             r))
  in
  let w = { Tyco_net.Nameservice.w_req_id = 0; w_site = 0; w_ip = 0 } in
  let look_ns =
    bench_ns "lookup" (fun () ->
        incr i;
        ignore
          (Tyco_net.Nameservice.lookup_id ns ~site:"s"
             ~name:(string_of_int (!i land 1023))
             w))
  in
  row "  register: %.0f ns/op (host), lookup: %.0f ns/op (host)@." reg_ns
    look_ns;
  let r =
    run
      {| site a { export new p p?(v) = io!printi[v] }
         site b { import p from a in p![1] } |}
  in
  row "  cold import to first reduction: %d virtual ns@."
    (match r.Api.outputs with (ts, _) :: _ -> ts | [] -> -1)

(* ------------------------------------------------------------------ *)
(* E9 — scaling on the Fig. 1 cluster (4 nodes x 2 cpus).              *)

let e9 () =
  section "E9"
    "scaling: master/worker fan-out on 4 nodes x 2 cores (paper Fig. 1 \
     platform)";
  let items = 64 in
  let work = 400 in
  row "  %d work items, each ~%d instructions of local compute@." items
    (work * 3);
  row "  %-10s %14s %10s@." "workers" "virtual ns" "speedup";
  let base = ref 0.0 in
  List.iter
    (fun nworkers ->
      let worker i =
        Printf.sprintf
          {| site w%d {
               import pool from master in
               def Crunch(n, k) = if n == 0 then k![1] else Crunch[n - 1, k]
               and Work() = new k (
                 pool!take[k]
                 | k?{ item(v) = new d (Crunch[%d, d] | d?(x) = Work[]),
                       stop() = io!printi[%d] })
               in Work[] } |}
          i work i
      in
      let master =
        Printf.sprintf
          {| site master {
               def Pool(self, left) =
                 self?{ take(k) = (if left == 0 then (k!stop[] | Pool[self, left])
                                   else (k!item[left] | Pool[self, left - 1])) }
               in export new pool Pool[pool, %d] } |}
          items
      in
      let src = master ^ String.concat "" (List.init nworkers worker) in
      let placement name =
        if name = "master" then 0
        else
          (int_of_string (String.sub name 1 (String.length name - 1)) + 1)
          mod 4
      in
      let r = run ~placement src in
      let t = float_of_int r.Api.virtual_ns in
      if nworkers = 1 then base := t;
      row "  %-10d %14d %10.2fx@." nworkers r.Api.virtual_ns (!base /. t))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E10 — termination detection overhead (paper future work).           *)

let e10 () =
  section "E10"
    "termination detection: probe overhead and detection latency (paper \
     §7 future work)";
  let src = pingpong_src 150 in
  let plain = run src in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse src));
  let report = Dityco.Termination.run_with_detection ~period:200_000 cluster in
  let actual = Cluster.virtual_time cluster in
  row "  run without detector: %d virtual ns@." plain.Api.virtual_ns;
  (match report.Dityco.Termination.detected_at with
  | Some t ->
      row "  detector announced at %d ns (%d ns after quiescence)@." t
        (t - plain.Api.virtual_ns)
  | None -> row "  detector: no announcement (unexpected)@.");
  row "  probes: %d, modelled control overhead: %d ns (%.2f%% of run)@."
    report.Dityco.Termination.probes
    report.Dityco.Termination.probe_overhead_ns
    (100.
    *. float_of_int report.Dityco.Termination.probe_overhead_ns
    /. float_of_int (max actual 1))

(* ------------------------------------------------------------------ *)
(* E11 — centralized vs replicated name service (paper future work).   *)

let e11 () =
  section "E11"
    "name service deployment: centralized vs per-node replicas (paper \
     \xc2\xa77 future work)";
  let nclients = 6 in
  let src =
    Printf.sprintf
      {| site server { export new p
           def L(x) = p?(v) = (io!printi[v] | L[x]) in L[0] }
         %s |}
      (String.concat ""
         (List.init nclients (fun i ->
              Printf.sprintf
                "site c%d { import p from server in p![%d] }" i i)))
  in
  let measure name cfg =
    let r = run ~config:cfg src in
    let last =
      List.fold_left (fun acc (ts, _) -> max acc ts) 0 r.Api.outputs
    in
    row "  %-14s last-import-resolved=%8d ns  packets=%3d  bytes=%5d@."
      name last r.Api.packets r.Api.bytes
  in
  row "  %d importer sites spread over 4 nodes@." nclients;
  measure "centralized" Cluster.default_config;
  measure "replicated"
    { Cluster.default_config with Cluster.ns_mode = Cluster.Replicated };
  row "  (replication trades broadcast registrations for local lookups)@."

(* ------------------------------------------------------------------ *)
(* E12 — peephole ablation (DESIGN.md design decision).                *)

let e12 () =
  section "E12" "peephole optimization ablation: code size and speed";
  let prog =
    Api.parse
      {| def Go(n) = if n == 0 then io!printi[1 + 2 * 3 - 4 / 2]
                     else Go[n - (3 - 2)]
         in Go[500] |}
  in
  let size opt =
    List.fold_left
      (fun acc (_, u) -> acc + Tyco_compiler.Bytecode.byte_size u)
      0
      (Tyco_compiler.Compile.compile_program ~optimize:opt prog)
  in
  let instrs opt =
    List.fold_left
      (fun acc (_, u) -> acc + Tyco_compiler.Block.instr_count u)
      0
      (Tyco_compiler.Compile.compile_program ~optimize:opt prog)
  in
  row "  %-14s %8s %8s@." "" "instrs" "bytes";
  row "  %-14s %8d %8d@." "unoptimized" (instrs false) (size false);
  row "  %-14s %8d %8d@." "peephole" (instrs true) (size true);
  (* virtual-time effect on an arithmetic-heavy workload *)
  let arith =
    {| def Go(n) = if n == 0 then io!printi[1 + 2 * 3 - 4 / 2]
                   else Go[n - (3 - 2)]
       in Go[500] |}
  in
  let vt opt =
    let units =
      Tyco_compiler.Compile.compile_program ~optimize:opt (Api.parse arith)
    in
    let cluster = Cluster.create () in
    Cluster.load cluster units;
    Cluster.run cluster;
    Cluster.virtual_time cluster
  in
  row "  arithmetic loop: %d ns unoptimized, %d ns peephole (%.1f%% less)@."
    (vt false) (vt true)
    (100. *. (1. -. float_of_int (vt true) /. float_of_int (vt false)))

(* ------------------------------------------------------------------ *)
(* E13 — scheduling-quantum ablation.                                  *)

let e13 () =
  section "E13"
    "scheduling quantum ablation: context-switch overhead on a      compute-heavy site";
  let src =
    {| def Loop(n) = if n == 0 then io!printi[0] else Loop[n - 1]
       in Loop[30000] |}
  in
  let time quantum =
    let config = { Cluster.default_config with Cluster.quantum } in
    (run ~config src).Api.virtual_ns
  in
  let base = time 512 in
  row "  %-10s %14s %10s@." "quantum" "virtual ns" "vs 512";
  List.iter
    (fun quantum ->
      let t = time quantum in
      row "  %-10d %14d %9.2fx@." quantum t
        (float_of_int t /. float_of_int base))
    [ 8; 64; 512; 4096 ];
  row "  (small quanta pay a context switch every few instructions; the        messaging workloads of E3-E5 are quantum-insensitive because        their threads are shorter than any quantum — outputs are always        identical, which the metamorphic tests assert)@."

(* ------------------------------------------------------------------ *)
(* E14 — payload size vs transfer time (the bandwidth term).           *)

let e14 () =
  section "E14" "payload size vs one-way transfer time (link bandwidth term)";
  row "  %-10s %14s %14s@." "args" "myrinet ns" "ethernet ns";
  List.iter
    (fun nargs ->
      let args =
        String.concat ", " (List.init nargs string_of_int)
      in
      let params =
        String.concat ", " (List.init nargs (Printf.sprintf "a%d"))
      in
      let src =
        Printf.sprintf
          {| site a { export new p p?(%s) = io!printi[a0] }
             site b { import p from a in p![%s] } |}
          params args
      in
      let t topology =
        let config = { Cluster.default_config with Cluster.topology } in
        let r = run ~config src in
        match r.Api.outputs with (ts, _) :: _ -> ts | [] -> -1
      in
      let myri = t Simnet.default_topology in
      let ether =
        t { Simnet.default_topology with
            Simnet.cluster = Latency.fast_ethernet }
      in
      row "  %-10d %14d %14d@." nargs myri ether;
      record_i (Printf.sprintf "e14_args%d_myrinet_ns" nargs) myri;
      record_i (Printf.sprintf "e14_args%d_ethernet_ns" nargs) ether)
    [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* E15 — reliable delivery under an adversarial fabric.                 *)

let e15 () =
  section "E15"
    "chaos: at-least-once delivery cost under packet loss (drop/dup/reorder)";
  let src = pingpong_src 30 in
  let clean = run src in
  let clean_outs = List.map snd clean.Api.outputs in
  row "  %-22s %12s %9s %8s %8s %8s  %s@." "fabric" "virtual ns" "packets"
    "drops" "retries" "dupes" "outputs";
  let trial name config =
    let r = run ~config src in
    let stats = Cluster.stats r.Api.cluster in
    let c n = Stats.counter_value stats n in
    row "  %-22s %12d %9d %8d %8d %8d  %s@." name r.Api.virtual_ns
      r.Api.packets (c "drops") (c "retries") (c "dupes_suppressed")
      (if Output.same_multiset clean_outs (List.map snd r.Api.outputs) then
         "intact"
       else "LOST")
  in
  trial "clean (seed run)"
    { Cluster.default_config with Cluster.reliable = true };
  List.iter
    (fun drop ->
      let faults =
        { Simnet.no_faults with
          Simnet.drop; duplicate = 0.1; reorder = 0.3; reorder_ns = 50_000 }
      in
      trial
        (Printf.sprintf "drop %.1f" drop)
        { Cluster.default_config with Cluster.faults; reliable = true })
    [ 0.1; 0.2; 0.3 ];
  (* the same adversary over a WAN-grade link: timeouts are dwarfed by
     propagation, so loss costs relatively less *)
  let faults =
    { Simnet.no_faults with
      Simnet.drop = 0.2; duplicate = 0.1; reorder = 0.3;
      reorder_ns = 50_000 }
  in
  trial "drop 0.2 over WAN"
    { Cluster.default_config with
      Cluster.topology =
        { Simnet.default_topology with Simnet.cluster = Latency.wan };
      faults;
      reliable = true;
      retry =
        { Cluster.default_retry_params with Cluster.rto_ns = 12_000_000 } }

(* ------------------------------------------------------------------ *)
(* E16 — transmit batching: frames, acks and allocation per message.   *)

(* The burst workload: a client fires [burst] asynchronous [put]s at
   each of [fanout] remote sinks, then a synchronous [flush] round-trip
   per sink, [rounds] times.  All of one round's sends leave the client
   within one scheduling quantum — the shape per-destination coalescing
   is built for. *)
let burst_src ~rounds ~burst ~fanout ~payload =
  let args = String.concat ", " (List.init payload string_of_int) in
  let params = String.concat ", " (List.init payload (Printf.sprintf "a%d")) in
  let sink i =
    Printf.sprintf
      {| site sink%d {
           export new svc%d
           def Serve%d(self) =
             self?{ put(%s) = Serve%d[self], flush(k) = (k![0] | Serve%d[self]) }
           in Serve%d[svc%d] } |}
      i i i params i i i i
  in
  let rec round_body i =
    if i = fanout then "Round[r - 1]"
    else
      Printf.sprintf "new k%d (%s svc%d!flush[k%d] | k%d?(v%d) = %s)" i
        (String.concat ""
           (List.init burst (fun _ -> Printf.sprintf "svc%d!put[%s] | " i args)))
        i i i i (round_body (i + 1))
  in
  let imports =
    String.concat " "
      (List.init fanout (fun i -> Printf.sprintf "import svc%d from sink%d in" i i))
  in
  Printf.sprintf
    {| %s
       site client {
         %s
         def Round(r) = if r == 0 then io!printi[0] else %s
         in Round[%d] } |}
    (String.concat "" (List.init fanout sink))
    imports (round_body 0) rounds

let e16 () =
  section "E16"
    "transmit batching: per-destination coalescing, cumulative acks, \
     buffer pooling";
  let rounds = if !smoke then 20 else 60 in
  let burst = 16 in
  (* client on node 0; sinks spread over the other three nodes *)
  let placement name =
    if name = "client" then 0
    else if String.length name > 4 && String.sub name 0 4 = "sink" then
      1 + (int_of_string (String.sub name 4 (String.length name - 4)) mod 3)
    else 0
  in
  (* [cap = 1] is the per-packet baseline: one frame per packet, sent
     at enqueue with no flush event *)
  let cfg ?(cap = Cluster.default_config.Cluster.flush_max_packets) ~reliable
      () =
    { Cluster.default_config with Cluster.flush_max_packets = cap; reliable }
  in
  let messages ~fanout = rounds * fanout * (burst + 2) in
  (* one trial: run the burst program, return the per-message stats *)
  let trial ?(fanout = 1) ?(payload = 1) config =
    let src = burst_src ~rounds ~burst ~fanout ~payload in
    let r = run ~config ~placement src in
    let cl = r.Api.cluster in
    let stats = Cluster.stats cl in
    let pk = float_of_int (max 1 r.Api.packets) in
    ( r,
      float_of_int (Cluster.frames_sent cl) /. pk,
      float_of_int (Stats.counter_value stats "acks") /. pk,
      Cluster.batch_fill_mean cl,
      Cluster.acks_piggybacked cl )
  in
  row "  %d rounds of %d-packet bursts + 1 sync flush, client->sink, \
       per config:@." rounds burst;
  row "  %-26s %9s %9s %8s %8s %8s %12s@." "config" "packets" "frames"
    "frm/pkt" "ack/pkt" "fill" "virtual ns";
  let show name (r, fpp, app, fill, _piggy) =
    row "  %-26s %9d %9d %8.2f %8.2f %8.1f %12d@." name r.Api.packets
      (Cluster.frames_sent r.Api.cluster) fpp app fill r.Api.virtual_ns
  in
  let b_unrel = trial (cfg ~reliable:false ()) in
  let u_unrel = trial (cfg ~cap:1 ~reliable:false ()) in
  let b_rel = trial (cfg ~reliable:true ()) in
  let u_rel = trial (cfg ~cap:1 ~reliable:true ()) in
  show "batched" b_unrel;
  show "flush cap 1" u_unrel;
  show "batched + reliable" b_rel;
  show "flush cap 1 + reliable" u_rel;
  let (rb, fpp_b, _, fill_b, _) = b_unrel in
  let (_, fpp_u, _, _, _) = u_unrel in
  let (rbr, fpp_br, app_br, _, piggy_br) = b_rel in
  let (_, fpp_ur, app_ur, _, _) = u_rel in
  (* frames reduction: same workload, same packet count, fewer frames *)
  let red_unrel = fpp_u /. fpp_b in
  let red_rel = fpp_ur /. fpp_br in
  row "  frames reduction: %.1fx unreliable, %.1fx reliable \
       (acks/packet %.2f -> %.2f, %d piggybacked)@."
    red_unrel red_rel app_ur app_br piggy_br;
  (* modeled latency the coalescing saved: n-1 fixed overheads per batch *)
  let saved =
    Latency.coalesce_saved_ns
      (Simnet.default_topology.Simnet.cluster)
      ~packets:(int_of_float (Float.round fill_b))
  in
  row "  mean fill %.1f pkts/batch -> %d ns modeled fixed overhead saved \
       per flush@." fill_b saved;
  (* host-side cost: wall clock and allocation per message.  The
     program is compiled once outside the thunk — the measured loop is
     place + run on a fresh cluster, so the delta between the two
     configs is the transport path itself.  A third run with every
     site on one node (pure same-node fast path, no fabric) gives the
     workload's VM baseline; subtracting it isolates what the
     *transport* allocates per message, which is the quantity batching
     changes. *)
  let msgs = float_of_int (messages ~fanout:1) in
  let units = Api.compile (Api.parse (burst_src ~rounds ~burst ~fanout:1 ~payload:1)) in
  let thunk placement config () =
    let cluster = Cluster.create ~config () in
    Cluster.load ~placement cluster units;
    Cluster.run cluster
  in
  let batched = cfg ~reliable:true () and cap1 = cfg ~cap:1 ~reliable:true () in
  let b_ns = bench_ns "e16-batched" (thunk placement batched) in
  let u_ns = bench_ns "e16-cap1" (thunk placement cap1) in
  let b_words = minor_words_per_run (thunk placement batched) in
  let u_words = minor_words_per_run (thunk placement cap1) in
  let base_words = minor_words_per_run (thunk (fun _ -> 0) batched) in
  let b_net = (b_words -. base_words) /. msgs in
  let u_net = (u_words -. base_words) /. msgs in
  let words_red = 100. *. (1. -. (b_net /. u_net)) in
  row "  host cost/message (reliable): %.0f ns, %.1f minor-words batched; \
       %.0f ns, %.1f minor-words at flush cap 1@."
    (b_ns /. msgs) (b_words /. msgs) (u_ns /. msgs) (u_words /. msgs);
  row "  transport minor-words/message (net of %.1f same-node baseline): \
       %.1f batched vs %.1f at flush cap 1 (%.0f%% fewer)@."
    (base_words /. msgs) b_net u_net words_red;
  record_f "e16_frames_per_packet" fpp_b;
  record_f "e16_cap1_frames_per_packet" fpp_u;
  record_f "e16_frames_reduction" red_unrel;
  record_f "e16_reliable_frames_per_packet" fpp_br;
  record_f "e16_reliable_cap1_frames_per_packet" fpp_ur;
  record_f "e16_reliable_frames_reduction" red_rel;
  record_f "e16_acks_per_packet" app_br;
  record_f "e16_cap1_acks_per_packet" app_ur;
  record_i "e16_acks_piggybacked" piggy_br;
  record_f "e16_batch_fill_mean" fill_b;
  record_i "e16_batched_virtual_ns" rb.Api.virtual_ns;
  record_i "e16_reliable_batched_virtual_ns" rbr.Api.virtual_ns;
  record_f "e16_batched_ns_per_msg" (b_ns /. msgs);
  record_f "e16_cap1_ns_per_msg" (u_ns /. msgs);
  record_f "e16_batched_minor_words_per_msg" (b_words /. msgs);
  record_f "e16_cap1_minor_words_per_msg" (u_words /. msgs);
  record_f "e16_baseline_minor_words_per_msg" (base_words /. msgs);
  record_f "e16_transport_minor_words_per_msg_batched" b_net;
  record_f "e16_transport_minor_words_per_msg_cap1" u_net;
  record_f "e16_minor_words_reduction_pct" words_red;
  if not !smoke then begin
    (* the sweep: flush thresholds x fan-out x payload *)
    row "  sweep (batched, unreliable): frm/pkt by flush threshold, \
         fan-out, payload@.";
    row "  %-34s %8s %8s %8s@." "point" "packets" "frm/pkt" "fill";
    let sweep name ?fanout ?payload config =
      let (r, fpp, _, fill, _) = trial ?fanout ?payload config in
      row "  %-34s %8d %8.2f %8.1f@." name r.Api.packets fpp fill
    in
    List.iter
      (fun n ->
        sweep
          (Printf.sprintf "flush_max_packets=%d" n)
          (cfg ~cap:n ~reliable:false ()))
      [ 2; 4; 8; 16; 32 ];
    List.iter
      (fun d ->
        sweep
          (Printf.sprintf "flush_deadline_ns=%d" d)
          { (cfg ~reliable:false ()) with Cluster.flush_deadline_ns = d })
      [ 0; 1_000; 10_000 ];
    List.iter
      (fun fanout ->
        sweep
          (Printf.sprintf "fanout=%d" fanout)
          ~fanout (cfg ~reliable:false ()))
      [ 1; 2; 3 ];
    List.iter
      (fun payload ->
        sweep
          (Printf.sprintf "payload=%d args" payload)
          ~payload (cfg ~reliable:false ()))
      [ 1; 8; 32 ]
  end

(* ------------------------------------------------------------------ *)
(* E17 — resource lifecycle soak: live state tracks the working set.   *)

(* The churn workload: every synchronous RPC allocates a fresh reply
   channel which the caller exports to the server — the canonical
   unbounded-growth shape.  [clients] sites each make [rounds] calls;
   with leases off every reply channel stays resident forever, with
   leases on the steady-state export tables track the in-flight
   window only. *)
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

let e17 () =
  section "E17"
    "resource lifecycle soak: export tables bounded by the live working \
     set (leases) vs linear growth (baseline)";
  let clients = 4 in
  let rounds = if !smoke then 2_000 else 125_000 in
  let messages = 2 * clients * rounds in
  let leased_cfg =
    { Cluster.default_config with
      Cluster.lease_ns = 200_000; lease_refresh_ns = 50_000 }
  in
  let trial config ~rounds =
    let r = run ~config (churn_src ~clients ~rounds) in
    (r, (Report.of_cluster r.Api.cluster).Report.memory)
  in
  row "  %d clients x %d RPCs = %d messages; each call exports a fresh \
       reply channel@." clients rounds messages;
  row "  %-10s %10s %10s %10s %10s %8s@." "config" "live" "allocated"
    "reclaimed" "refreshes" "held";
  let show name (_, m) =
    row "  %-10s %10d %10d %10d %10d %8d@." name m.Report.mem_chan_live
      m.Report.mem_chan_allocated m.Report.mem_ids_reclaimed
      m.Report.mem_lease_refreshes m.Report.mem_held_imports
  in
  let ((_, bm) as baseline) = trial Cluster.default_config ~rounds in
  let ((lr, lm) as leased) = trial leased_cfg ~rounds in
  show "baseline" baseline;
  show "leased" leased;
  (* the flatness evidence: half the churn, same steady-state live
     count under leases — while the baseline live count halves with the
     workload because it *is* the workload size *)
  let _, bh = trial Cluster.default_config ~rounds:(rounds / 2) in
  let _, lh = trial leased_cfg ~rounds:(rounds / 2) in
  row "  half-scale: baseline live %d -> %d (linear); leased live %d -> %d \
       (flat)@."
    bh.Report.mem_chan_live bm.Report.mem_chan_live lh.Report.mem_chan_live
    lm.Report.mem_chan_live;
  row "  leased end state: done_reqs=%d code_cache=%d fetch_cache=%d \
       stale_refs=%d@."
    lm.Report.mem_done_reqs lm.Report.mem_code_cache lm.Report.mem_fetch_cache
    lm.Report.mem_stale_refs;
  record_i "e17_messages" messages;
  record_i "e17_baseline_live_exports_end" bm.Report.mem_chan_live;
  record_i "e17_baseline_live_exports_half" bh.Report.mem_chan_live;
  record_i "e17_baseline_allocated" bm.Report.mem_chan_allocated;
  record_i "e17_live_exports_end" lm.Report.mem_chan_live;
  record_i "e17_live_exports_half" lh.Report.mem_chan_live;
  record_i "e17_leased_allocated" lm.Report.mem_chan_allocated;
  record_i "e17_leased_reclaimed" lm.Report.mem_ids_reclaimed;
  record_i "e17_lease_refreshes" lm.Report.mem_lease_refreshes;
  record_i "e17_held_imports_end" lm.Report.mem_held_imports;
  record_i "e17_done_reqs_end" lm.Report.mem_done_reqs;
  record_i "e17_stale_refs" lm.Report.mem_stale_refs;
  record_i "e17_leased_virtual_ns" lr.Api.virtual_ns

(* ------------------------------------------------------------------ *)
(* E18 — per-subsystem overhead: what each optional feature costs.     *)
(* The PR-6 regression (2.2x -> 1.2x E1 speedup) was bookkeeping from  *)
(* tracing/lease/batching accumulating on always-on paths; this        *)
(* microbench prices each subsystem separately — host ns/run and       *)
(* minor-words/run deltas against the same workload with the feature   *)
(* toggled — so a future PR sees what its hooks cost before it lands.  *)
(* Two workloads: the local E1 counter (pure reduction path, no        *)
(* packets) and a cross-node ping-pong (send path, exports, frames).   *)

let e18 () =
  section "E18"
    "per-subsystem overhead: trace/lease/batching on-off deltas";
  let local = Api.parse (counter_src 200) in
  let xnode = Api.parse (pingpong_src 50) in
  let measure prog config =
    let f () = ignore (Api.run_program ~typecheck:false ~config prog) in
    (bench_ns "cfg" f, minor_words_per_run f)
  in
  let base = Cluster.default_config in
  let traced =
    { base with Cluster.tracing = true }
  in
  let leased =
    { base with
      Cluster.lease_ns = 200_000; lease_refresh_ns = 50_000 }
  in
  let cap1 = { base with Cluster.flush_max_packets = 1 } in
  let pct over baseline =
    if baseline > 0. then (over -. baseline) /. baseline *. 100. else nan
  in
  let report tag prog configs =
    let base_ns, base_mw = measure prog base in
    row "  %-10s %-10s %12.0f ns/run  %10.0f minor-words/run@." tag "base"
      base_ns base_mw;
    record_f (Printf.sprintf "e18_%s_base_ns_per_run" tag) base_ns;
    record_f (Printf.sprintf "e18_%s_base_minor_words_per_run" tag) base_mw;
    List.iter
      (fun (name, config) ->
        let ns, mw = measure prog config in
        row "  %-10s %-10s %12.0f ns/run  %10.0f minor-words/run  (%+.1f%% ns)@."
          tag name ns mw (pct ns base_ns);
        record_f (Printf.sprintf "e18_%s_%s_ns_per_run" tag name) ns;
        record_f (Printf.sprintf "e18_%s_%s_minor_words_per_run" tag name) mw;
        record_f (Printf.sprintf "e18_%s_%s_overhead_pct" tag name)
          (pct ns base_ns))
      configs
  in
  (* local: disabled features must cost ~zero here — the trace/lease
     deltas on this workload are the number the E1 gate protects *)
  report "local" local [ ("trace", traced); ("lease", leased) ];
  (* cross-node: what the same subsystems cost when actually exercised,
     plus the batching delta (one frame per packet at flush cap 1) *)
  report "xnode" xnode
    [ ("trace", traced); ("lease", leased); ("cap1", cap1) ]

(* ------------------------------------------------------------------ *)
(* E19 — multicore scaling: the E9 master/worker workload, scaled up,  *)
(* run through the sharded multi-domain engine at 1/2/4/8 domains.     *)
(* Aggregate throughput = VM instructions / wall ns; the CI gate wants *)
(* >= 2.5x at 4 domains, which needs >= 4 host cores — the host core   *)
(* count is recorded so the gate can skip loudly on small runners.     *)

let e19 () =
  section "E19"
    "multicore scaling: domain-sharded cluster, E9-shaped master/worker \
     fan-out on 8 nodes";
  (* the workload does NOT shrink in smoke mode: the CI gate reads the
     smoke-run numbers, and a toy-sized run would measure domain spawn
     and coordinator overhead instead of scaling (only the repeat
     count shrinks) *)
  let items = 256 in
  let work = 2_000 in
  let nodes = 8 in
  let nworkers = 8 in
  let worker i =
    Printf.sprintf
      {| site w%d {
           import pool from master in
           def Crunch(n, k) = if n == 0 then k![1] else Crunch[n - 1, k]
           and Work() = new k (
             pool!take[k]
             | k?{ item(v) = new d (Crunch[%d, d] | d?(x) = Work[]),
                   stop() = io!printi[%d] })
           in Work[] } |}
      i work i
  in
  let master =
    Printf.sprintf
      {| site master {
           def Pool(self, left) =
             self?{ take(k) = (if left == 0 then (k!stop[] | Pool[self, left])
                               else (k!item[left] | Pool[self, left - 1])) }
           in export new pool Pool[pool, %d] } |}
      items
  in
  let src = master ^ String.concat "" (List.init nworkers worker) in
  let prog = Api.parse src in
  let placement name =
    if name = "master" then 0
    else
      (int_of_string (String.sub name 1 (String.length name - 1)) + 1)
      mod nodes
  in
  let config = { Cluster.default_config with Cluster.nodes } in
  let host_cores = Domain.recommended_domain_count () in
  row "  %d work items x ~%d instructions, %d workers on %d nodes, host \
       has %d cores@."
    items (work * 3) nworkers nodes host_cores;
  record_i "e19_host_cores" host_cores;
  row "  %-10s %12s %14s %10s %10s %10s@." "domains" "wall ms"
    "Minstr/s" "speedup" "handoffs" "parks";
  let repeats = if !smoke then 1 else 3 in
  let base_tp = ref 0.0 in
  List.iter
    (fun d ->
      (* best of [repeats]: wall-clock runs are noisy, min is the
         standard estimator for a fixed workload *)
      let best = ref None in
      for _ = 1 to repeats do
        let r = Api.run_parallel ~config ~placement ~domains:d prog in
        if r.Dityco.Par_runner.timed_out then
          failwith "e19: parallel run timed out";
        match !best with
        | Some b when b.Dityco.Par_runner.wall_ns <= r.Dityco.Par_runner.wall_ns
          ->
            ()
        | _ -> best := Some r
      done;
      let r = Option.get !best in
      let tp =
        float_of_int (Report.instructions (Report.of_parallel r))
        /. float_of_int (max r.Dityco.Par_runner.wall_ns 1)
      in
      if d = 1 then base_tp := tp;
      let speedup = tp /. !base_tp in
      row "  %-10d %12.1f %14.1f %9.2fx %10d %10d@." d
        (float_of_int r.Dityco.Par_runner.wall_ns /. 1e6)
        (tp *. 1e3) speedup r.Dityco.Par_runner.handoffs
        r.Dityco.Par_runner.parks;
      record_f (Printf.sprintf "e19_minstr_per_s_d%d" d) (tp *. 1e3);
      record_i (Printf.sprintf "e19_wall_ms_d%d" d)
        (r.Dityco.Par_runner.wall_ns / 1_000_000);
      record_i (Printf.sprintf "e19_handoffs_d%d" d)
        r.Dityco.Par_runner.handoffs;
      if d = 4 then
        record "e19_speedup_d4" (Printf.sprintf "%.3f" speedup))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Paired comparisons of two parallel-engine configurations (E20,     *)
(* E21): [pairs] runs of each, alternating which side runs first so   *)
(* host drift hits both alike, reported as medians and quartiles.     *)

let alternated ~pairs a b =
  List.split
    (List.init pairs (fun i ->
         if i mod 2 = 0 then
           let ra = a () in
           (ra, b ())
         else
           let rb = b () in
           (a (), rb)))

(* (p25, p50, p75) by linear interpolation between closest ranks. *)
let quartiles xs =
  let d = Stats.Dist.create "quartiles" in
  List.iter (Stats.Dist.add d) xs;
  (Stats.Dist.percentile d 0.25, Stats.Dist.percentile d 0.5,
   Stats.Dist.percentile d 0.75)

let median xs =
  let _, m, _ = quartiles xs in
  m

let par_tp r =
  float_of_int (Report.instructions (Report.of_parallel r))
  /. float_of_int (max r.Dityco.Par_runner.wall_ns 1)

let par_wall_ms r = float_of_int r.Dityco.Par_runner.wall_ns /. 1e6

(* One line for a paired comparison: median throughput of each side,
   then the per-pair throughput ratio b/a as p50 [p25, p75] and the
   pairs b won.  Returns the median ratio. *)
let report_pairs ~label ~a ~b ra rb =
  let ratios = List.map2 (fun x y -> par_tp y /. par_tp x) ra rb in
  let q1, q2, q3 = quartiles ratios in
  let wins = List.length (List.filter (fun r -> r > 1.) ratios) in
  row
    "  %-10s %s %7.1f ms %6.1f Minstr/s | %s %7.1f ms %6.1f Minstr/s | \
     %s/%s %.2fx [%.2f, %.2f], %d/%d pairs@."
    label a
    (median (List.map par_wall_ms ra))
    (median (List.map par_tp ra) *. 1e3)
    b
    (median (List.map par_wall_ms rb))
    (median (List.map par_tp rb) *. 1e3)
    b a q2 q1 q3 wins (List.length ratios);
  q2

(* ------------------------------------------------------------------ *)
(* E20 — load-aware placement: a Zipf-skewed workload (site counts per *)
(* node follow a heavy-headed distribution, with the two heaviest      *)
(* nodes colliding at ip mod 4) run through the sharded engine under   *)
(* --placement mod vs greedy.  Work is statically attached to sites —  *)
(* no pool to self-balance through — so the makespan is the loaded     *)
(* shard's: mod serializes 18/32 of the work on one domain where       *)
(* greedy's bound is the single heaviest node (12/32).  The CI gate    *)
(* wants greedy >= 1.3x mod at 4 domains (needs >= 4 host cores).      *)

let e20 () =
  section "E20"
    "load-aware placement: Zipf-skewed site counts on 8 nodes, mod vs \
     greedy sharding";
  (* per-node site counts: Zipf-ish head, permuted so the heavy nodes
     0 and 4 collide at ip mod 4 (the adversarial-but-realistic case:
     a skewed deployment that happens to alias under round-robin) *)
  let site_counts = [| 12; 3; 2; 2; 6; 2; 1; 4 |] in
  let nodes = Array.length site_counts in
  let work = 4_000 in
  let total_sites = Array.fold_left ( + ) 0 site_counts in
  let nworkers = total_sites - 1 (* node 0's first site is the hub *) in
  let hub =
    Printf.sprintf
      {| site hub {
           def Count(self, n) =
             self?{ ping() = if n == 1 then io!printi[0]
                             else Count[self, n - 1] }
           in export new done Count[done, %d] } |}
      nworkers
  in
  let worker name =
    (* fixed instruction budget per site, one cross-node completion
       ping: compute-bound with a trickle of fabric traffic *)
    Printf.sprintf
      {| site %s {
           import done from hub in
           def Crunch(n, k) = if n == 0 then k![1] else Crunch[n - 1, k]
           in new d (Crunch[%d, d] | d?(x) = done!ping[]) } |}
      name work
  in
  let names =
    List.concat
      (List.init nodes (fun n ->
           let count = site_counts.(n) - if n = 0 then 1 else 0 in
           List.init count (fun j -> Printf.sprintf "w%d_%d" n j)))
  in
  let src = hub ^ String.concat "" (List.map worker names) in
  let prog = Api.parse src in
  let placement name =
    (* "w<node>_<j>" — parsed by hand: Scanf's %d would swallow the
       underscore as a digit separator *)
    if name = "hub" then 0
    else
      let us = String.index name '_' in
      int_of_string (String.sub name 1 (us - 1))
  in
  let config = { Cluster.default_config with Cluster.nodes } in
  let host_cores = Domain.recommended_domain_count () in
  row "  %d sites on %d nodes (counts %s), ~%d instructions each, host \
       has %d cores@."
    total_sites nodes
    (String.concat ","
       (Array.to_list (Array.map string_of_int site_counts)))
    (work * 3) host_cores;
  record_i "e20_host_cores" host_cores;
  let pairs = if !smoke then 1 else 10 in
  let run policy d () =
    let r = Api.run_parallel ~config ~placement ~policy ~domains:d prog in
    if r.Dityco.Par_runner.timed_out then failwith "e20: parallel run timed out";
    r
  in
  row "  %d alternated mod/greedy pairs per domain count@." pairs;
  List.iter
    (fun d ->
      let mods, greedys =
        alternated ~pairs (run Dityco.Placement.Mod d)
          (run Dityco.Placement.Greedy d)
      in
      let gain =
        report_pairs ~label:(Printf.sprintf "%d domains" d) ~a:"mod"
          ~b:"greedy" mods greedys
      in
      record (Printf.sprintf "e20_gain_d%d" d) (Printf.sprintf "%.3f" gain);
      List.iter
        (fun (pname, rs) ->
          (* per-shard executed-events imbalance: max/mean, 1.0 =
             perfectly even — the signal the placement is meant to fix *)
          let imbal r =
            Dityco.Placement.imbalance
              (Array.map
                 (fun s -> float_of_int s.Dityco.Par_runner.ss_events)
                 r.Dityco.Par_runner.shard_stats)
          in
          record_f
            (Printf.sprintf "e20_minstr_per_s_%s_d%d" pname d)
            (median (List.map par_tp rs) *. 1e3);
          record_i
            (Printf.sprintf "e20_wall_ms_%s_d%d" pname d)
            (int_of_float (median (List.map par_wall_ms rs)));
          record
            (Printf.sprintf "e20_exec_imbalance_%s_d%d" pname d)
            (Printf.sprintf "%.3f" (median (List.map imbal rs)));
          if d = 4 then
            record
              (Printf.sprintf "e20_batch_fill_%s_d4" pname)
              (Printf.sprintf "%.2f"
                 (median
                    (List.map
                       (fun r -> r.Dityco.Par_runner.ring_batch_fill_mean)
                       rs))))
        [ ("mod", mods); ("greedy", greedys) ])
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E21 — dynamic rebalancing: a phase-shifting workload where the hot  *)
(* half of the nodes alternates.  Greedy static placement is perfect   *)
(* for the run as a whole yet wrong in every phase: the active half    *)
(* sits on two of the four shards while the other two idle.  The       *)
(* rebalancer (--rebalance) migrates hot nodes toward the idle shards  *)
(* inside each phase and back after the flip.  Measured at 2 and 4      *)
(* domains; the CI gate wants rebalancing >= 1.2x static greedy at 4   *)
(* domains (needs >= 4 host cores — recorded so the gate can skip      *)
(* loudly on small runners).  Keys without a domain suffix are the     *)
(* 4-domain figures the gate reads.                                    *)

let e21_at domains =
  let nodes = 9 (* driver + NS on node 0, workers on 1..8 *) in
  let sites_per_node = 2 in
  let work = 100_000 in
  let phases = 6 in
  let wname n j = Printf.sprintf "w%d_%d" n j in
  let wchan n j = Printf.sprintf "c%d_%d" n j in
  (* worker sites export a serve channel immediately and import
     nothing: the reply channel travels inside the go message (a
     netref crossing sites — the paper's code mobility), so driver and
     workers have no import cycle to deadlock on *)
  let worker n j =
    Printf.sprintf
      {| site %s {
           def Crunch(n, k) = if n == 0 then k![1] else Crunch[n - 1, k]
           and Serve(self) =
             self?{ go(k) = new d (Crunch[%d, d]
                                   | d?(x) = (k![1] | Serve[self])) }
           in export new %s Serve[%s] } |}
      (wname n j) work (wchan n j) (wchan n j)
  in
  (* the alternating halves are computed from greedy's *actual* map:
     each phase lights up exactly the nodes greedy packed onto shards
     {0, 1}, then the ones on {2, 3} — adversarial but realistic (any
     static map is wrong for some phase order) *)
  let site_counts =
    Array.init nodes (fun n -> if n = 0 then 1 else sites_per_node)
  in
  let gmap =
    Dityco.Placement.assign ~domains ~site_counts Dityco.Placement.Greedy
  in
  let h1, h2 =
    let a = ref [] and b = ref [] in
    for n = nodes - 1 downto 1 do
      if gmap.(n) < domains / 2 then a := n :: !a else b := n :: !b
    done;
    (!a, !b)
  in
  if h1 = [] || h2 = [] then failwith "e21: degenerate greedy map";
  let chans half =
    List.concat_map
      (fun n -> List.init sites_per_node (fun j -> wchan n j))
      half
  in
  (* one phase: fire go at every site of the half, collect one reply
     per site off a single fresh reply channel, then flip *)
  let phase_def name next cs =
    let sends = String.concat " | " (List.map (fun c -> c ^ "!go[k]") cs) in
    let rec collect i =
      if i = List.length cs then Printf.sprintf "%s[p - 1]" next
      else Printf.sprintf "k?(r%d) = (%s)" i (collect (i + 1))
    in
    Printf.sprintf "%s(p) = if p == 0 then io!printi[0] else (new k (%s | %s))"
      name sends (collect 0)
  in
  let driver =
    let body =
      Printf.sprintf "def %s and %s in GoA[%d]"
        (phase_def "GoA" "GoB" (chans h1))
        (phase_def "GoB" "GoA" (chans h2))
        phases
    in
    let imports =
      List.fold_right
        (fun n acc ->
          List.fold_right
            (fun j acc ->
              Printf.sprintf "import %s from %s in %s" (wchan n j) (wname n j)
                acc)
            (List.init sites_per_node Fun.id)
            acc)
        (h1 @ h2) body
    in
    Printf.sprintf {| site driver { %s } |} imports
  in
  let workers =
    List.concat
      (List.init (nodes - 1) (fun n ->
           List.init sites_per_node (fun j -> worker (n + 1) j)))
  in
  let src = driver ^ String.concat "" workers in
  let prog = Api.parse src in
  let placement name =
    if name = "driver" then 0
    else
      let us = String.index name '_' in
      int_of_string (String.sub name 1 (us - 1))
  in
  let config = { Cluster.default_config with Cluster.nodes } in
  let host_cores = Domain.recommended_domain_count () in
  row "  %d phases x %d active sites x ~%d instructions, halves %s / %s, \
       host has %d cores@."
    phases
    (List.length (chans h1))
    (work * 3)
    (String.concat "," (List.map string_of_int h1))
    (String.concat "," (List.map string_of_int h2))
    host_cores;
  let pairs = if !smoke then 1 else 10 in
  let run rebalance () =
    let r =
      Api.run_parallel ~config ~placement ~policy:Dityco.Placement.Greedy
        ~domains ?rebalance prog
    in
    if r.Dityco.Par_runner.timed_out then failwith "e21: run timed out";
    if not r.Dityco.Par_runner.clean then failwith "e21: unclean quiescence";
    if List.length r.Dityco.Par_runner.outputs <> 1 then
      failwith "e21: wrong output count";
    r
  in
  let st, rb =
    alternated ~pairs (run None)
      (run (Some { Dityco.Par_runner.rb_interval_ms = 4; rb_threshold = 1.3 }))
  in
  let gain =
    report_pairs ~label:(Printf.sprintf "%d domains" domains) ~a:"static"
      ~b:"rebal" st rb
  in
  let key k = if domains = 4 then k else Printf.sprintf "%s_d%d" k domains in
  let med f rs = median (List.map f rs) in
  let rebal = List.map Report.of_parallel rb in
  let counted name =
    med
      (fun rep -> float_of_int (Stats.counter_value rep.Report.stats name))
      rebal
  in
  let migrations = counted "migrations" in
  let forwarded = counted "forwarded_envelopes" in
  let migration_ms = counted "migration_ns" /. 1e6 in
  let handoffs = med (fun r -> float_of_int r.Dityco.Par_runner.handoffs) in
  row "  %-10s rebal medians: %.0f migrations, %.0f forwarded, %.0f ms \
       migrating, %.0f handoffs (static %.0f)@."
    "" migrations forwarded migration_ms (handoffs rb) (handoffs st);
  List.iter
    (fun (mode, rs) ->
      record_f
        (Printf.sprintf "e21_minstr_per_s_%s_d%d" mode domains)
        (med par_tp rs *. 1e3);
      record_i
        (Printf.sprintf "e21_wall_ms_%s_d%d" mode domains)
        (int_of_float (med par_wall_ms rs)))
    [ ("static", st); ("rebal", rb) ];
  record_i (key "e21_migrations") (int_of_float migrations);
  record_i (key "e21_forwarded_envelopes") (int_of_float forwarded);
  record_i (key "e21_migration_ms") (int_of_float migration_ms);
  record (Printf.sprintf "e21_gain_d%d" domains) (Printf.sprintf "%.3f" gain)

let e21 () =
  section "E21"
    "dynamic rebalancing: phase-shifting load on 8 worker nodes, static \
     greedy vs --rebalance at 2 and 4 domains";
  record_i "e21_host_cores" (Domain.recommended_domain_count ());
  List.iter e21_at [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Traced E1: one iteration of the E1 workload with causal tracing on. *)
(* Exercises the observability layer end-to-end and leaves the trace   *)
(* as an artifact (CI uploads it); the gated E1 numbers above are      *)
(* measured with tracing off, so this also documents that the default  *)
(* path carries no tracing cost.                                       *)

let traced_e1 out =
  section "E1-traced" "one traced E1 iteration (causal trace artifact)";
  let config = { Cluster.default_config with Cluster.tracing = true } in
  let r = run ~config (counter_src 200) in
  let tr = Cluster.tracer r.Api.cluster in
  let events = List.length (Tyco_support.Trace.events tr) in
  let data =
    if Filename.check_suffix out ".json" then
      Tyco_support.Trace.to_chrome_json tr
    else Tyco_support.Trace.serialize tr
  in
  let oc = open_out_bin out in
  output_string oc data;
  close_out oc;
  row "  %d trace events, %d bytes written to %s@." events
    (String.length data) out;
  record_i "e1_trace_events" events

let trace_out = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--json" :: rest ->
        json_mode := true;
        parse rest
    | "--out" :: path :: rest ->
        json_path := path;
        parse rest
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--smoke] [--json] [--out FILE] [--trace-out FILE]  \
           (unknown arg %s)\n"
          Sys.argv.(0) arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Format.printf "DiTyCO experiment harness (see DESIGN.md / EXPERIMENTS.md)%s@."
    (if !smoke then " [smoke mode]" else "");
  if !smoke then begin
    (* the measurements CI gates on; the rest are skipped for speed *)
    e1 ();
    e2 ();
    e14 ();
    e16 ();
    e17 ();
    e18 ();
    e19 ();
    e20 ();
    e21 ()
  end
  else begin
    e1 ();
    e2 ();
    e3 ();
    e4 ();
    e5 ();
    e6 ();
    e7 ();
    e8 ();
    e9 ();
    e10 ();
    e11 ();
    e12 ();
    e13 ();
    e14 ();
    e15 ();
    e16 ();
    e17 ();
    e18 ();
    e19 ();
    e20 ();
    e21 ()
  end;
  (match !trace_out with Some out -> traced_e1 out | None -> ());
  if !json_mode then write_json ();
  Format.printf "@.done.@."
