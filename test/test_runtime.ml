(* End-to-end runtime tests: the full byte-code runtime on the
   simulated cluster, checked against the reference semantics and
   exercised for mobility, caching, races, failures and termination
   detection. *)

open Dityco
module Parser = Tyco_syntax.Parser

let check = Alcotest.check

let ev_testable = Alcotest.testable Output.pp_event Output.equal_event

let run ?config ?placement ?until src =
  Api.run_program ?config ?placement ?until (Api.parse src)

let events r = List.map snd r.Api.outputs

let agrees src = Api.agree_with_reference (Api.parse src)

(* ------------------------------------------------------------------ *)
(* The paper's programs, runtime vs reference                          *)

let paper_programs =
  [ ( "cell",
      {| def Cell(self, v) =
           self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
         in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = io!printi[w])) |} );
    ( "rpc",
      {| site s { import p from r in let y = p![7] in io!printi[y] }
         site r { export new p p?(x, k) = k![x * x] } |} );
    ( "applet-fetch",
      {| site server { export def Applet(p) = p![42] in nil }
         site client { import Applet from server in
                       new p (Applet[p] | p?(v) = io!printi[v]) } |} );
    ( "applet-ship",
      {| site server {
           def S(self) = self?{ applet(p) = (p?(x) = io!printi[x + 100] | S[self]) }
           in export new srv S[srv] }
         site client { import srv from server in new p (srv!applet[p] | p![5]) } |} );
    ( "two-clients",
      {| site server {
           def Acc(self, n) = self?{ add(k) = (k![n] | Acc[self, n + 1]) }
           in export new svc Acc[svc, 0] }
         site c1 { import svc from server in
                   new k (svc!add[k] | k?(v) = io!printb[v < 2]) }
         site c2 { import svc from server in
                   new k (svc!add[k] | k?(v) = io!printb[v < 2]) } |} ) ]

let differential_paper () =
  List.iter
    (fun (name, src) ->
      if not (agrees src) then Alcotest.failf "%s: VM and reference differ" name)
    paper_programs

let outputs_exact () =
  let r = run (snd (List.hd paper_programs)) in
  check (Alcotest.list ev_testable) "cell outputs"
    [ { Output.site = "main"; label = "printi"; args = [ Output.Oint 9 ] } ]
    (events r)

(* ------------------------------------------------------------------ *)
(* Determinism and configuration independence                          *)

let deterministic_runs () =
  let src = List.assoc "two-clients" paper_programs in
  let a = run src and b = run src in
  check (Alcotest.list ev_testable) "same outputs" (events a) (events b);
  check Alcotest.int "same virtual time" a.Api.virtual_ns b.Api.virtual_ns;
  check Alcotest.int "same packets" a.Api.packets b.Api.packets

let quantum_independent_outputs () =
  let src = List.assoc "rpc" paper_programs in
  let small = run ~config:{ Cluster.default_config with Cluster.quantum = 8 } src in
  let large = run ~config:{ Cluster.default_config with Cluster.quantum = 4096 } src in
  check Alcotest.bool "same multiset" true
    (Output.same_multiset (events small) (events large))

let placement_independent_outputs () =
  let src = List.assoc "applet-ship" paper_programs in
  let spread = run src in
  let packed = run ~placement:(fun _ -> 0) src in
  check Alcotest.bool "same multiset" true
    (Output.same_multiset (events spread) (events packed));
  check Alcotest.bool "colocated is faster" true
    (packed.Api.virtual_ns < spread.Api.virtual_ns)

let link_model_affects_time_not_result () =
  let src = List.assoc "rpc" paper_programs in
  let eth =
    { Cluster.default_config with
      Cluster.topology =
        { Tyco_net.Simnet.default_topology with
          Tyco_net.Simnet.cluster = Tyco_net.Latency.fast_ethernet } }
  in
  let myri = run src and slow = run ~config:eth src in
  check Alcotest.bool "same outputs" true
    (Output.same_multiset (events myri) (events slow));
  check Alcotest.bool "ethernet slower" true
    (slow.Api.virtual_ns > myri.Api.virtual_ns)

(* ------------------------------------------------------------------ *)
(* Mobility internals                                                  *)

let code_cache_no_rebloat () =
  (* the client ships three identical objects to a server-located name
     (the SHIPO path): the byte-code is linked at the server once *)
  let src =
    {| site server {
         export new slot (slot!feed[1] | slot!feed[2] | slot!feed[3]) }
       site client {
         import slot from server in
         def Put(n) =
           if n == 0 then nil
           else ((slot?{ feed(v) = io!printi[v] }) | Put[n - 1])
         in Put[3] } |}
  in
  let r = run src in
  let server = Cluster.site r.Api.cluster "server" in
  let links =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats server) "links")
  in
  let ships =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats server) "ships_in")
  in
  check Alcotest.bool "multiple ships" true (ships >= 3);
  check Alcotest.int "linked once" 1 links

let fetch_cached () =
  (* instantiate an imported class twice: one FETCH round-trip *)
  let src =
    {| site a { export def K(k) = k![4] in nil }
       site b { import K from a in
                new p (K[p] | (p?(v) = (io!printi[v] |
                new q (K[q] | q?(w) = io!printi[w * 2])))) } |}
  in
  let r = run src in
  let b = Cluster.site r.Api.cluster "b" in
  let fetches =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats b) "fetches")
  in
  check Alcotest.int "one fetch" 1 fetches;
  check Alcotest.bool "both instantiations ran" true
    (Output.same_multiset (events r)
       [ { Output.site = "b"; label = "printi"; args = [ Output.Oint 4 ] };
         { Output.site = "b"; label = "printi"; args = [ Output.Oint 8 ] } ])

let import_race_resolved () =
  (* the importer site is listed first and placed alone: its lookup
     reaches the name service before the export registers *)
  let src =
    {| site b { import p from a in p![5] }
       site a { export new p p?(x) = io!printi[x] } |}
  in
  let r = run src in
  check (Alcotest.list ev_testable) "resolved after parking"
    [ { Output.site = "a"; label = "printi"; args = [ Output.Oint 5 ] } ]
    (events r);
  check Alcotest.int "nothing left parked" 0
    (Cluster.name_service_pending r.Api.cluster)

let unresolved_import_pends () =
  let src = {| site b { import p from a in p![5] } site a { nil } |} in
  let r = Api.run_program ~typecheck:false (Api.parse src) in
  check Alcotest.int "parked forever" 1
    (Cluster.name_service_pending r.Api.cluster);
  check (Alcotest.list ev_testable) "no outputs" [] (events r)

let protocol_error_detected () =
  (* bypass the type checker: remote message with a label the object
     lacks must raise the dynamic protocol error (paper §7) *)
  let src =
    {| site a { export new p p?{ good() = nil } }
       site b { import p from a in p!bad[] } |}
  in
  check Alcotest.bool "runtime error" true
    (match Api.run_program ~typecheck:false (Api.parse src) with
    | exception Api.Error (Api.Runtime_error _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Perpetual programs                                                  *)

let seti_bounded () =
  let src =
    {| site seti {
         new database
         def DB(self, n) = self?{ chunk(k) = k![n] | DB[self, n + 1] }
         in export def Install(cl) = Go[cl]
            and Go(cl) = let d = database!chunk[] in (cl![d] | Go[cl])
         in DB[database, 0]
       }
       site client {
         def L(me) = me?(d) = (io!printi[d] | L[me])
         in new me (L[me] | import Install from seti in Install[me]) }
    |}
  in
  let r1 = run ~until:2_000_000 src in
  let r2 = run ~until:4_000_000 src in
  let n1 = List.length (events r1) and n2 = List.length (events r2) in
  check Alcotest.bool "keeps producing" true (n1 > 3 && n2 > n1);
  (* chunks arrive in order: 0, 1, 2, ... *)
  let values =
    List.filter_map
      (fun e ->
        match e.Output.args with [ Output.Oint n ] -> Some n | _ -> None)
      (events r1)
  in
  check (Alcotest.list Alcotest.int) "ordered stream"
    (List.init (List.length values) Fun.id)
    values

(* ------------------------------------------------------------------ *)
(* Failure injection and termination detection (paper future work)     *)

let site_failure () =
  let src =
    {| site server { export new p p?(x, k) = k![x] }
       site client { import p from server in
                     let v = p![1] in io!printi[v] } |}
  in
  let prog = Api.parse src in
  let units = Api.compile prog in
  let cluster = Cluster.create () in
  Cluster.load cluster units;
  (* kill the server before the client's message can arrive *)
  Cluster.kill_site cluster "server" ~at:1;
  Cluster.run cluster;
  check Alcotest.int "no outputs" 0 (List.length (Cluster.outputs cluster));
  check Alcotest.bool "failure suspected" true
    (List.exists
       (fun (_, name) -> name = "server")
       (Cluster.suspected_failures cluster))

let survivors_continue () =
  let src =
    {| site server { export new p p?(x, k) = k![x] }
       site client { import p from server in
                     let v = p![1] in io!printi[v] }
       site loner { io!printi[7] } |}
  in
  let prog = Api.parse src in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile prog);
  Cluster.kill_site cluster "server" ~at:1;
  Cluster.run cluster;
  check (Alcotest.list ev_testable) "unaffected site output"
    [ { Output.site = "loner"; label = "printi"; args = [ Output.Oint 7 ] } ]
    (List.map snd (Cluster.outputs cluster))

let termination_detected () =
  let src = List.assoc "rpc" paper_programs in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse src));
  let report = Termination.run_with_detection ~period:10_000 cluster in
  (match report.Termination.detected_at with
  | Some t -> check Alcotest.bool "after activity" true (t > 0)
  | None -> Alcotest.fail "termination not detected");
  check Alcotest.bool "probe overhead reported" true
    (report.Termination.probes >= 2 && report.Termination.probe_overhead_ns > 0)

let termination_not_premature () =
  (* with a long-running program, the detector must not fire while
     remote calls are still in flight: detection time >= last output *)
  let src = List.assoc "two-clients" paper_programs in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse src));
  let report = Termination.run_with_detection ~period:5_000 cluster in
  let last_output =
    List.fold_left (fun acc (ts, _) -> max acc ts) 0 (Cluster.outputs cluster)
  in
  match report.Termination.detected_at with
  | Some t -> check Alcotest.bool "no premature detection" true (t >= last_output)
  | None -> Alcotest.fail "termination not detected"

(* ------------------------------------------------------------------ *)
(* Output API                                                          *)

let timestamps_monotone () =
  let r = run (List.assoc "two-clients" paper_programs) in
  let rec mono = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check Alcotest.bool "chronological" true (mono r.Api.outputs)

let site_stats_exposed () =
  let r = run (List.assoc "rpc" paper_programs) in
  let s = Cluster.site r.Api.cluster "s" in
  let instrs =
    Tyco_support.Stats.Counter.value
      (Tyco_support.Stats.counter (Site.stats s) "instructions")
  in
  check Alcotest.bool "instructions counted" true (instrs > 0)

let tests =
  [ ("paper programs: VM = reference", `Quick, differential_paper);
    ("exact outputs", `Quick, outputs_exact);
    ("deterministic runs", `Quick, deterministic_runs);
    ("quantum-independent outputs", `Quick, quantum_independent_outputs);
    ("placement-independent outputs", `Quick, placement_independent_outputs);
    ("link model affects time only", `Quick, link_model_affects_time_not_result);
    ("code cache prevents rebloat", `Quick, code_cache_no_rebloat);
    ("fetch cached", `Quick, fetch_cached);
    ("import/export race", `Quick, import_race_resolved);
    ("unresolved import pends", `Quick, unresolved_import_pends);
    ("dynamic protocol error", `Quick, protocol_error_detected);
    ("seti bounded run", `Quick, seti_bounded);
    ("site failure injection", `Quick, site_failure);
    ("survivors continue", `Quick, survivors_continue);
    ("termination detected", `Quick, termination_detected);
    ("termination not premature", `Quick, termination_not_premature);
    ("timestamps monotone", `Quick, timestamps_monotone);
    ("site stats exposed", `Quick, site_stats_exposed) ]

(* ------------------------------------------------------------------ *)
(* Separate compilation with dynamic type checking (paper §7)          *)

let isolated_compatible_runs () =
  (* each site typechecks alone; protocols agree -> runs normally *)
  let src =
    {| site a { export new p p?(x, k) = k![x + 1] }
       site b { import p from a in let v = p![41] in io!printi[v] } |}
  in
  let r = Api.run_program ~isolated:true (Api.parse src) in
  check (Alcotest.list ev_testable) "runs"
    [ { Output.site = "b"; label = "printi"; args = [ Output.Oint 42 ] } ]
    (events r)

let isolated_mismatch_rejected () =
  (* both sites typecheck alone, but the importer's usage disagrees
     with the exporter's interface: the dynamic check at import
     resolution must reject (whole-program checking would reject
     statically, so we need isolated mode to even reach the runtime) *)
  let src =
    {| site a { export new p p?(x, k) = k![x + 1] }
       site b { import p from a in let v = p![true] in io!printb[v] } |}
  in
  check Alcotest.bool "dynamic type error" true
    (match Api.run_program ~isolated:true (Api.parse src) with
    | exception Api.Error (Api.Runtime_error m) ->
        (* the message mentions the import *)
        let has sub =
          let nh = String.length m and nn = String.length sub in
          let rec go i = i + nn <= nh && (String.sub m i nn = sub || go (i + 1)) in
          go 0
        in
        has "type mismatch"
    | _ -> false)

let isolated_method_mismatch_rejected () =
  let src =
    {| site a { export new p p?{ ping(k) = k![1] } }
       site b { import p from a in new k (p!pong[k] | k?(v) = io!printi[v]) } |}
  in
  check Alcotest.bool "missing method detected at import" true
    (match Api.run_program ~isolated:true (Api.parse src) with
    | exception Api.Error (Api.Runtime_error _) -> true
    | _ -> false)

let isolated_class_mismatch_rejected () =
  let src =
    {| site a { export def K(v, out) = out![v + 1] in nil }
       site b { import K from a in new o (K[true, o] | o?(x) = io!printb[x]) } |}
  in
  check Alcotest.bool "class signature mismatch" true
    (match Api.run_program ~isolated:true (Api.parse src) with
    | exception Api.Error (Api.Runtime_error _) -> true
    | _ -> false)

let isolated_class_polymorphic_ok () =
  (* wildcard positions in the exporter's descriptor accept anything *)
  let src =
    {| site a { export def Id(v, out) = out![v] in nil }
       site b { import Id from a in
                new o (Id[true, o] | o?(x) = io!printb[x]) } |}
  in
  let r = Api.run_program ~isolated:true (Api.parse src) in
  check Alcotest.int "ran" 1 (List.length (events r))

let isolated_local_error_still_static () =
  let src = {| site a { io!printi[true] } |} in
  check Alcotest.bool "local type errors stay static" true
    (match Api.run_program ~isolated:true (Api.parse src) with
    | exception Api.Error (Api.Type_error _) -> true
    | _ -> false)

let isolated_tests =
  [ ("isolated: compatible protocols run", `Quick, isolated_compatible_runs);
    ("isolated: value mismatch rejected", `Quick, isolated_mismatch_rejected);
    ("isolated: method mismatch rejected", `Quick, isolated_method_mismatch_rejected);
    ("isolated: class mismatch rejected", `Quick, isolated_class_mismatch_rejected);
    ("isolated: polymorphic class ok", `Quick, isolated_class_polymorphic_ok);
    ("isolated: local errors static", `Quick, isolated_local_error_still_static) ]

let tests = tests @ isolated_tests

(* ------------------------------------------------------------------ *)
(* Same-node shared-memory fast path                                   *)

let fast_path_src =
  {| site a { export new p p?(v) = io!printi[v] }
     site b { import p from a in p![5] } |}

let expected_fast_path_events =
  [ { Output.site = "a"; label = "printi"; args = [ Output.Oint 5 ] } ]

let same_node_fast_path () =
  (* everything on node 0 — also the name service's node — so every
     delivery is intra-node: the whole run must cross the fabric zero
     times (no serialization happens at all; byte accounting would
     have recorded it) *)
  let all0 = run ~placement:(fun _ -> 0) fast_path_src in
  check (Alcotest.list ev_testable) "outputs" expected_fast_path_events
    (events all0);
  check Alcotest.int "no fabric packets" 0 all0.Api.packets;
  check Alcotest.int "no fabric bytes" 0 all0.Api.bytes;
  check Alcotest.bool "fast path used" true
    (Cluster.same_node_fast all0.Api.cluster > 0);
  (* spread over nodes 1 and 2 — away from the name service on node 0 —
     every send crosses the fabric and the fast path never fires *)
  let cross =
    run ~placement:(fun n -> if n = "a" then 1 else 2) fast_path_src
  in
  check (Alcotest.list ev_testable) "same outputs" expected_fast_path_events
    (events cross);
  check Alcotest.int "fast path unused cross-node" 0
    (Cluster.same_node_fast cross.Api.cluster);
  check Alcotest.bool "packets crossed the fabric" true (cross.Api.packets > 0)

let same_node_fast_path_reliable () =
  (* reliable mode normally frames, acks and retransmits — intra-node
     traffic must skip all of it *)
  let cfg = { Cluster.default_config with Cluster.reliable = true } in
  let r = run ~config:cfg ~placement:(fun _ -> 0) fast_path_src in
  check (Alcotest.list ev_testable) "outputs" expected_fast_path_events
    (events r);
  check Alcotest.int "no frames" 0 r.Api.packets;
  check Alcotest.int "no acks" 0
    (Tyco_support.Stats.counter_value (Cluster.stats r.Api.cluster) "acks");
  check Alcotest.bool "fast path used" true
    (Cluster.same_node_fast r.Api.cluster > 0)

(* ------------------------------------------------------------------ *)
(* Replicated name service (paper future work)                         *)

let replicated_cfg =
  { Cluster.default_config with Cluster.ns_mode = Cluster.Replicated }

let replicated_ns_same_outputs () =
  List.iter
    (fun (name, src) ->
      let central = run src in
      let repl = run ~config:replicated_cfg src in
      if not (Output.same_multiset (events central) (events repl)) then
        Alcotest.failf "%s: outputs differ under replicated NS" name)
    paper_programs

(* One exporter and three importers, one site per node. *)
let importers_src =
  {| site server { export new p
       def L(x) = p?(v) = (io!printi[v] | L[x]) in L[0] }
     site c1 { import p from server in p![1] }
     site c2 { import p from server in p![2] }
     site c3 { import p from server in p![3] } |}

let replicated_ns_faster_lookups () =
  (* many importers on different nodes: local lookups beat the
     centralized round trip *)
  let src = importers_src in
  let central = run src in
  let repl = run ~config:replicated_cfg src in
  check Alcotest.bool "same outputs" true
    (Output.same_multiset (events central) (events repl));
  (* local replicas turn the lookup round-trips into same-node
     shared-memory deliveries; even with the registration broadcast,
     fewer packets cross the fabric than under the centralized service *)
  check Alcotest.bool "fewer fabric packets (local lookups)" true
    (repl.Api.packets < central.Api.packets);
  check Alcotest.bool "more same-node deliveries" true
    (Cluster.same_node_fast repl.Api.cluster
    > Cluster.same_node_fast central.Api.cluster);
  (* ...but the time to the last resolution should not regress much *)
  check Alcotest.bool "not slower than 1.5x" true
    (float_of_int repl.Api.virtual_ns
     < 1.5 *. float_of_int central.Api.virtual_ns)

let replicated_ns_race () =
  (* lookup reaches the local replica before the broadcast arrives:
     must park and resolve, never fail *)
  let src =
    {| site b { import p from a in p![5] }
       site a { export new p p?(x) = io!printi[x] } |}
  in
  let r = run ~config:replicated_cfg src in
  check (Alcotest.list ev_testable) "resolved"
    [ { Output.site = "a"; label = "printi"; args = [ Output.Oint 5 ] } ]
    (events r);
  check Alcotest.int "no pending" 0 (Cluster.name_service_pending r.Api.cluster)

let replicated_ns_fewer_replicas_than_nodes () =
  (* regression: replica indices are not node ips.  With 2 replicas on
     a 4-node cluster, importers placed on the replica-less nodes 2 and
     3 must consult their home replica (ip mod 2) over the network and
     still resolve — the old code conflated the broadcast skip index
     with the handling node's ip and only worked when replicas = nodes *)
  let src =
    {| site server { export new p
         def L(x) = p?(v) = (io!printi[v] | L[x]) in L[0] }
       site c1 { import p from server in p![1] }
       site c2 { import p from server in p![2] } |}
  in
  let placement = function
    | "server" -> 0
    | "c1" -> 2
    | _ -> 3
  in
  let central = run ~placement src in
  let cfg =
    { Cluster.default_config with
      Cluster.nodes = 4; ns_mode = Cluster.Replicated; ns_replicas = 2 }
  in
  let repl = run ~config:cfg ~placement src in
  check Alcotest.bool "same outputs" true
    (Output.same_multiset (events central) (events repl));
  check Alcotest.int "no pending" 0
    (Cluster.name_service_pending repl.Api.cluster)

let replicated_tests =
  [ ("same-node fast path", `Quick, same_node_fast_path);
    ("same-node fast path (reliable)", `Quick, same_node_fast_path_reliable);
    ("replicated NS: same outputs", `Quick, replicated_ns_same_outputs);
    ("replicated NS: broadcast vs lookups", `Quick, replicated_ns_faster_lookups);
    ("replicated NS: registration race", `Quick, replicated_ns_race);
    ( "replicated NS: nodes > replicas",
      `Quick,
      replicated_ns_fewer_replicas_than_nodes ) ]

let tests = tests @ replicated_tests

(* ------------------------------------------------------------------ *)
(* Heartbeat failure detection (paper future work, active variant)     *)

let heartbeat_detects_kill () =
  let src =
    {| site server {
         def Serve(svc) = svc?{ ping(v, k) = (k![v] | Serve[svc]) }
         in export new svc Serve[svc] }
       site client { import svc from server in
                     def Ping(n) =
                       if n == 0 then io!printi[0]
                       else let v = svc!ping[n] in Ping[n - 1]
                     in Ping[200] } |}
  in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse src));
  let kill_at = 500_000 in
  let report =
    Failure.run_with_heartbeats ~period:100_000 ~kills:[ ("server", kill_at) ]
      cluster
  in
  (match report.Failure.suspicions with
  | [ s ] ->
      check Alcotest.string "who" "server" s.Failure.s_site;
      check Alcotest.bool "after the kill" true (s.Failure.s_at >= kill_at);
      check Alcotest.bool "within two periods + timeout" true
        (s.Failure.s_at - kill_at <= (2 * 100_000) + 50_000)
  | l -> Alcotest.failf "expected one suspicion, got %d" (List.length l));
  check Alcotest.int "no false suspicions" 0 report.Failure.false_suspicions;
  check Alcotest.bool "probing has a cost" true
    (report.Failure.probe_overhead_ns > 0)

let heartbeat_quiet_when_healthy () =
  let src = List.assoc "rpc" paper_programs in
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse src));
  let report = Failure.run_with_heartbeats ~kills:[] cluster in
  check Alcotest.int "no suspicions" 0 (List.length report.Failure.suspicions);
  check Alcotest.bool "monitor terminated" true (report.Failure.probe_rounds >= 2)

let heartbeat_tests =
  [ ("heartbeat detects killed site", `Quick, heartbeat_detects_kill);
    ("heartbeat quiet when healthy", `Quick, heartbeat_quiet_when_healthy) ]

let tests = tests @ heartbeat_tests

(* ------------------------------------------------------------------ *)
(* Packet trace: kept by traced runs only                              *)

let traced = { Cluster.default_config with Cluster.tracing = true }

let rpc_packet_trace () =
  let r = run ~config:traced (List.assoc "rpc" paper_programs) in
  let trace = List.map snd (Cluster.packet_trace r.Api.cluster) in
  let count pred = List.length (List.filter pred trace) in
  check Alcotest.int "two shipments"
    2 (count (function Tyco_net.Packet.Pmsg _ -> true | _ -> false));
  check Alcotest.int "one registration"
    1 (count (function Tyco_net.Packet.Pns_register _ -> true | _ -> false));
  check Alcotest.int "one lookup"
    1 (count (function Tyco_net.Packet.Pns_lookup _ -> true | _ -> false));
  check Alcotest.int "one reply"
    1 (count (function Tyco_net.Packet.Pns_reply _ -> true | _ -> false));
  check Alcotest.int "total" 5 (List.length trace);
  (* chronological timestamps *)
  let rec mono = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check Alcotest.bool "monotone" true (mono (Cluster.packet_trace r.Api.cluster))

let fetch_packet_trace () =
  let r = run ~config:traced (List.assoc "applet-fetch" paper_programs) in
  let trace = List.map snd (Cluster.packet_trace r.Api.cluster) in
  let count pred = List.length (List.filter pred trace) in
  check Alcotest.int "one fetch request"
    1 (count (function Tyco_net.Packet.Pfetch_req _ -> true | _ -> false));
  check Alcotest.int "one fetch reply"
    1 (count (function Tyco_net.Packet.Pfetch_rep _ -> true | _ -> false))

let trace_tests =
  [ ("rpc packet trace", `Quick, rpc_packet_trace);
    ("fetch packet trace", `Quick, fetch_packet_trace) ]

let tests = tests @ trace_tests

(* ------------------------------------------------------------------ *)
(* Dynamic program submission (paper §5: TyCOsh/TyCOi — "new sites are
   created when a new program is submitted for execution")             *)

let dynamic_submission () =
  let cluster = Cluster.create () in
  (* first program: a server *)
  Cluster.load cluster
    (Api.compile
       (Api.parse
          {| site server {
               def Serve(svc) = svc?{ ping(v, k) = (k![v * 2] | Serve[svc]) }
               in export new svc Serve[svc] } |}));
  Cluster.run cluster;
  let t1 = Cluster.virtual_time cluster in
  check Alcotest.bool "server quiesced waiting" true (Cluster.quiescent cluster);
  (* later, a client program is submitted to the running network *)
  Cluster.load cluster
    (Api.compile
       (Api.parse
          {| site client { import svc from server in
                           let v = svc!ping[21] in io!printi[v] } |}));
  Cluster.run cluster;
  check
    (Alcotest.list ev_testable)
    "second program used the first one's exports"
    [ { Output.site = "client"; label = "printi"; args = [ Output.Oint 42 ] } ]
    (List.map snd (Cluster.outputs cluster));
  check Alcotest.bool "time advanced monotonically" true
    (Cluster.virtual_time cluster >= t1)

let submission_name_clash_rejected () =
  let cluster = Cluster.create () in
  Cluster.load cluster (Api.compile (Api.parse {| site a { nil } |}));
  check Alcotest.bool "duplicate site name rejected" true
    (match Cluster.load cluster (Api.compile (Api.parse {| site a { nil } |})) with
    | exception Invalid_argument _ -> true
    | () -> false)

let submission_tests =
  [ ("dynamic program submission", `Quick, dynamic_submission);
    ("submission name clash", `Quick, submission_name_clash_rejected) ]

let tests = tests @ submission_tests

(* ------------------------------------------------------------------ *)
(* I/O port input (paper §5: "users may selectively provide data to
   running programs")                                                  *)

let io_input_echo () =
  let src =
    {| def Echo(n) =
         if n == 0 then nil
         else new k (io!readi[k] | k?(v) = (io!printi[v * 2] | Echo[n - 1]))
       in Echo[3] |}
  in
  let prog = Api.parse src in
  ignore (Api.typecheck prog);
  let inputs = [ ("main", [ 5; 6; 7 ]) ] in
  let r = Api.run_program ~inputs prog in
  check (Alcotest.list ev_testable) "doubled echo"
    [ { Output.site = "main"; label = "printi"; args = [ Output.Oint 10 ] };
      { Output.site = "main"; label = "printi"; args = [ Output.Oint 12 ] };
      { Output.site = "main"; label = "printi"; args = [ Output.Oint 14 ] } ]
    (events r);
  check Alcotest.bool "reference agrees" true
    (Api.agree_with_reference ~inputs prog)

let io_input_starved_blocks () =
  let src = {| new k (io!readi[k] | k?(v) = io!printi[v]) |} in
  let prog = Api.parse src in
  let r = Api.run_program ~inputs:[ ("main", []) ] prog in
  check Alcotest.int "no output, no crash" 0 (List.length (events r));
  check Alcotest.bool "reference agrees" true (Api.agree_with_reference prog)

let io_input_per_site () =
  let src =
    {| site a { new k (io!readi[k] | k?(v) = io!printi[v]) }
       site b { new k (io!readi[k] | k?(v) = io!printi[v + 100]) } |}
  in
  let prog = Api.parse src in
  let inputs = [ ("a", [ 1 ]); ("b", [ 2 ]) ] in
  let r = Api.run_program ~inputs prog in
  check Alcotest.bool "each site reads its own feed" true
    (Output.same_multiset (events r)
       [ { Output.site = "a"; label = "printi"; args = [ Output.Oint 1 ] };
         { Output.site = "b"; label = "printi"; args = [ Output.Oint 102 ] } ]);
  check Alcotest.bool "reference agrees" true
    (Api.agree_with_reference ~inputs prog)

let io_input_type_checked () =
  check Alcotest.bool "readi needs an int-reply channel" true
    (match Api.typecheck (Api.parse "new k (io!readi[k] | k?(v) = io!printb[v])") with
    | exception Api.Error (Api.Type_error _) -> true
    | _ -> false)

let io_input_tests =
  [ ("io input echo", `Quick, io_input_echo);
    ("io input starved blocks", `Quick, io_input_starved_blocks);
    ("io input per site", `Quick, io_input_per_site);
    ("io input typed", `Quick, io_input_type_checked) ]

let tests = tests @ io_input_tests

(* ------------------------------------------------------------------ *)
(* Real TCP loopback transport                                         *)

let tcp_runner_paper_programs () =
  List.iter
    (fun (name, src) ->
      let prog = Api.parse src in
      let sim_outs = List.map snd (Api.run_program prog).Api.outputs in
      let tcp = Tcp_runner.run_program ~timeout_ms:20_000 prog in
      if tcp.Tcp_runner.timed_out then Alcotest.failf "%s: timed out" name;
      if not (Output.same_multiset sim_outs tcp.Tcp_runner.outputs) then
        Alcotest.failf "%s: TCP transport outputs differ from simulation"
          name)
    [ ("rpc", List.assoc "rpc" paper_programs);
      ("applet-fetch", List.assoc "applet-fetch" paper_programs);
      ("applet-ship", List.assoc "applet-ship" paper_programs);
      ("two-clients", List.assoc "two-clients" paper_programs) ]

let tcp_runner_packets_flow () =
  let prog = Api.parse (List.assoc "rpc" paper_programs) in
  let r = Tcp_runner.run_program prog in
  check Alcotest.bool "TCP packets exchanged" true (r.Tcp_runner.packets >= 3);
  check Alcotest.bool "finished" false r.Tcp_runner.timed_out

let tcp_runner_single_node () =
  (* all sites on one node: routing is node-local, no sockets needed *)
  let prog = Api.parse (List.assoc "rpc" paper_programs) in
  let sim_outs = List.map snd (Api.run_program prog).Api.outputs in
  let r = Tcp_runner.run_program ~nodes:1 prog in
  check Alcotest.bool "same outputs" true
    (Output.same_multiset sim_outs r.Tcp_runner.outputs)

let tcp_runner_default_port_range () =
  (* every pid up to Linux's pid_max ceiling (2^22): the whole port
     block stays in [20000, 32768), below the ephemeral range *)
  List.iter
    (fun nodes ->
      for pid = 0 to 1 lsl 22 do
        let base = Tcp_runner.default_base_port ~pid ~nodes in
        if base < 20000 || base + nodes >= 32768 then
          Alcotest.failf "pid %d, %d nodes: ports %d..%d" pid nodes base
            (base + nodes - 1)
      done)
    [ 1; 2; 4; 64 ];
  match Tcp_runner.default_base_port ~pid:1 ~nodes:20000 with
  | _ -> Alcotest.fail "a port block past 32768 accepted"
  | exception Invalid_argument _ -> ()

(* A 2-node program an import nobody exports keeps busy forever, and a
   peer that connects to node 1 and writes [bytes] to it. *)
let never_quiescent =
  lazy
    (Api.compile
       (Api.parse
          {| site a { import ghost from b in ghost![1] }
             site b { io!printi[7] } |}))

let inject_into_node_1 ~base_port bytes =
  Domain.spawn (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 1) in
      let rec connect tries =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match Unix.connect fd addr with
        | () -> fd
        | exception Unix.Unix_error _ when tries > 0 ->
            Unix.close fd;
            Unix.sleepf 0.005;
            connect (tries - 1)
      in
      let fd = connect 1000 in
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      Unix.sleepf 0.05;
      Unix.close fd)

let length_prefixed payload =
  let n = String.length payload in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ payload

(* Fail loudly: bytes a node cannot accept stop the run with a failure
   naming the node, instead of killing the node's domain silently and
   leaving the coordinator to wait out the timeout.  The program never
   quiesces, so only the failure can end the run early. *)
let tcp_garbage_input_fails_fast () =
  let base_port = Tcp_runner.default_base_port ~pid:(Unix.getpid ()) ~nodes:2 in
  List.iter
    (fun (what, bytes, message) ->
      let injector = inject_into_node_1 ~base_port bytes in
      let t0 = Unix.gettimeofday () in
      (match
         Tcp_runner.run ~nodes:2 ~base_port ~timeout_ms:20_000
           (Lazy.force never_quiescent)
       with
      | _ -> Alcotest.failf "%s: run finished without failing" what
      | exception Tcp_runner.Node_failure (id, m) ->
          check Alcotest.int (what ^ ": names node 1") 1 id;
          check Alcotest.string (what ^ ": names the failure") message m);
      Domain.join injector;
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > 5. then
        Alcotest.failf "%s: failure took %.1f s against a 20 s timeout" what
          elapsed)
    [ ("garbage frame", length_prefixed "\255\254\253",
       "malformed frame: packet tag 255");
      ("oversized length prefix", "\255\255\255\255",
       "frame of 4294967295 bytes exceeds the 16777216-byte cap") ]

(* A one-second two-node run that never quiesces, in which node 1
   takes a well-formed packet for a site it does not host. *)
let dead_letter_run () =
  let base_port = Tcp_runner.default_base_port ~pid:(Unix.getpid ()) ~nodes:2 in
  let dst =
    Tyco_support.Netref.make ~kind:Tyco_support.Netref.Channel ~heap_id:0
      ~site_id:99 ~ip:1
  in
  let injector =
    inject_into_node_1 ~base_port
      (length_prefixed
         (Tyco_net.Packet.to_string
            (Tyco_net.Packet.Pmsg { dst; label = "x"; args = [] })))
  in
  let r =
    Tcp_runner.run ~nodes:2 ~base_port ~timeout_ms:1_000 ~metrics:true
      (Lazy.force never_quiescent)
  in
  Domain.join injector;
  r

(* The packet is a dead letter, as in the simulated engines, not a
   silent drop. *)
let tcp_dead_letter_counted () =
  let r = dead_letter_run () in
  check Alcotest.bool "ran to the timeout" true r.Tcp_runner.timed_out;
  check Alcotest.int "dead letter counted" 1 r.Tcp_runner.dead_letters;
  (* the injector's socket closes after 50 ms; a node that kept its
     end-of-file in the poll set would wake on it for the rest of the
     second *)
  if r.Tcp_runner.parks >= 1000 then
    Alcotest.failf "%d parks in a 1 s run" r.Tcp_runner.parks

(* A site's runtime error ends the run the same way, and run_program
   reports it as an Api runtime error naming the node. *)
let tcp_site_error_fails_fast () =
  let prog =
    Api.parse
      {| site a { def Spin() = Spin[] in Spin[] }
         site b { io!printi[1 / 0] } |}
  in
  let t0 = Unix.gettimeofday () in
  (match Tcp_runner.run_program ~nodes:2 ~timeout_ms:20_000 prog with
  | _ -> Alcotest.fail "run finished without failing"
  | exception Api.Error (Api.Runtime_error m) ->
      check Alcotest.bool ("names node 1: " ^ m) true
        (String.length m > 14 && String.sub m 0 14 = "node 1 failed:"));
  if Unix.gettimeofday () -. t0 > 5. then
    Alcotest.fail "site failure waited out the timeout"

(* A run ends at its last event, not at a later scan: the median of 11
   runs of a trivial two-site program stays far below any polling
   period a coordinator could use. *)
let tcp_stops_at_quiescence () =
  let units =
    Api.compile
      (Api.parse
         {| site a { export new x x?(v) = io!printi[v] }
            site b { import x from a in x![1] } |})
  in
  let walls =
    List.sort compare
      (List.init 11 (fun _ ->
           let r = Tcp_runner.run ~nodes:2 units in
           if r.Tcp_runner.timed_out then Alcotest.fail "timed out";
           r.Tcp_runner.wall_ns))
  in
  let median_ms = float_of_int (List.nth walls 5) /. 1e6 in
  if median_ms >= 10. then
    Alcotest.failf "median wall time %.2f ms, not under 10 ms" median_ms

(* No early stop: three clients on two nodes each print as soon as
   their own calls return, so a run that stops while a reply is still
   on its way, or still being handled, loses a line. *)
let tcp_no_early_stop () =
  let program ~rounds =
    let client i =
      Printf.sprintf
        {| site c%d { import svc from server in
             def Ping(n, acc) = if n == 0 then io!printi[acc]
                                else let v = svc!ping[n] in Ping[n - 1, acc + v]
             in Ping[%d, %d] } |}
        i rounds (i * 1_000_000)
    in
    Api.compile
      (Api.parse
         ({| site server {
               def Serve(svc) = svc?{ ping(v, k) = (k![v + 1] | Serve[svc]) }
               in export new svc Serve[svc] } |}
         ^ String.concat "" (List.init 3 client)))
  in
  List.iter
    (fun (runs, rounds) ->
      let units = program ~rounds in
      let expected =
        List.init 3 (fun i ->
            { Output.site = Printf.sprintf "c%d" i;
              label = "printi";
              args = [ Output.Oint ((i * 1_000_000) + (rounds * (rounds + 3) / 2)) ] })
      in
      for run = 1 to runs do
        let r = Tcp_runner.run ~nodes:2 ~timeout_ms:20_000 units in
        if r.Tcp_runner.timed_out then
          Alcotest.failf "%d rounds, run %d: timed out" rounds run;
        if not (Output.same_multiset expected r.Tcp_runner.outputs) then
          Alcotest.failf "%d rounds, run %d: %d lines, not the 3 expected"
            rounds run (List.length r.Tcp_runner.outputs)
      done)
    [ (300, 10); (3, 2000) ]

let tcp_tests =
  [ ("tcp transport: paper programs", `Slow, tcp_runner_paper_programs);
    ("tcp transport: stops at quiescence", `Quick, tcp_stops_at_quiescence);
    ("tcp transport: no early stop", `Quick, tcp_no_early_stop);
    ("tcp transport: garbage input fails fast", `Quick,
     tcp_garbage_input_fails_fast);
    ("tcp transport: site error fails fast", `Quick, tcp_site_error_fails_fast);
    ("tcp transport: dead letter counted", `Quick, tcp_dead_letter_counted);
    ("tcp transport: default port range", `Quick,
     tcp_runner_default_port_range);
    ("tcp transport: packets flow", `Quick, tcp_runner_packets_flow);
    ("tcp transport: single node", `Quick, tcp_runner_single_node) ]

let tests = tests @ tcp_tests

(* ------------------------------------------------------------------ *)
(* JSON run reports                                                    *)

let report_json_shape () =
  let r = run (List.assoc "rpc" paper_programs) in
  let json = Report.to_json (Report.of_cluster r.Api.cluster) in
  let has sub =
    let nh = String.length json and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub json i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has virtual_ns" true (has "\"virtual_ns\":");
  check Alcotest.bool "has outputs" true (has "\"label\":\"printi\"");
  check Alcotest.bool "has sites" true (has "\"instructions\":");
  check Alcotest.bool "valid escaping" true
    (Report.json_escape "a\"b\\c\nd" = "a\\\"b\\\\c\\nd")

let tests = tests @ [ ("report json shape", `Quick, report_json_shape) ]

(* ------------------------------------------------------------------ *)
(* Shipped sample programs: every examples/programs/*.tyco must parse,
   type-check and run (bounded for perpetual ones).                    *)

let sample_programs () =
  let samples = Samples.programs () in
  check Alcotest.bool "samples present" true (List.length samples >= 5);
  List.iter
    (fun (f, path, src) ->
      match
        let prog = Api.parse ~file:path src in
        ignore (Api.typecheck prog);
        Api.run_program ~until:3_000_000 prog
      with
      | r -> ignore r
      | exception Api.Error e ->
          Alcotest.failf "%s: %s" f (Api.error_message e))
    samples

let tests = tests @ [ ("shipped sample programs", `Quick, sample_programs) ]

(* A report describes only its run: built twice from one finished run,
   with a minor collection in between, it renders the same JSON. *)
let report_stable_across_gc () =
  let r = run (List.assoc "rpc" paper_programs) in
  let json () = Report.to_json (Report.of_cluster r.Api.cluster) in
  let before = json () in
  Gc.minor ();
  check Alcotest.string "same report after Gc.minor" before (json ())

let tests =
  tests @ [ ("report json stable across a minor gc", `Quick, report_stable_across_gc) ]

(* A TCP run has a report too: the common part from its merged node
   registries and its sites, and a "tcp" section.  It has no virtual
   clock, so virtual time and output timestamps read 0. *)
let tcp_report () =
  let prog = Api.parse (List.assoc "rpc" paper_programs) in
  let r = Tcp_runner.run_program ~nodes:2 ~metrics:true prog in
  let rep = Report.of_tcp r in
  check Alcotest.int "packets from the registry" r.Tcp_runner.packets
    rep.Report.packets;
  check Alcotest.int "every site reported" 2 (List.length rep.Report.sites);
  check Alcotest.int "no virtual clock" 0 rep.Report.virtual_ns;
  check Alcotest.bool "outputs at time 0" true
    (rep.Report.outputs <> []
    && List.for_all (fun (t, _) -> t = 0) rep.Report.outputs);
  let json = Report.to_json rep in
  let has sub =
    let nh = String.length json and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub json i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "tcp engine" true (has "\"engine\":\"tcp\"");
  check Alcotest.bool "tcp section" true (has ",\"tcp\":{\"nodes\":2,");
  check Alcotest.bool "no wire latency" true (has "\"wire\":null")

let tests = tests @ [ ("tcp report", `Quick, tcp_report) ]

(* TCP's transport clock reads 0, so a site's queue-wait samples there
   are handling-cost offsets, not waits: the report has no queue wait,
   as it has no wire latency. *)
let tcp_report_no_queue_wait () =
  let prog = Api.parse (List.assoc "rpc" paper_programs) in
  let rep =
    Report.of_tcp (Tcp_runner.run_program ~nodes:2 ~metrics:true prog)
  in
  check Alcotest.bool "queue wait unmeasured" true
    (rep.Report.breakdown.Report.b_queue_wait = None)

(* A TCP node that takes a dead letter suspects its site, as the
   simulated engines do, and the report carries the suspicion. *)
let tcp_report_suspicions () =
  let rep = Report.of_tcp (dead_letter_run ()) in
  check Alcotest.int "one dead letter" 1 rep.Report.dead_letters;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "its site suspected" [ (0, "site#99") ] rep.Report.suspected_failures

let tests =
  tests
  @ [ ("tcp report: no queue wait", `Quick, tcp_report_no_queue_wait);
      ("tcp report: suspicions", `Quick, tcp_report_suspicions) ]
