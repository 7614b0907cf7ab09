(* The observability layer end-to-end: trace determinism, cross-site
   causal trees (SHIP and FETCH, clean and under loss), Perfetto export
   shape, the binary archive round-trip, the packet-trailer wire
   compatibility rules, and the null-safe report path. *)

open Dityco
module Trace = Tyco_support.Trace
module Packet = Tyco_net.Packet
module Netref = Tyco_support.Netref
module Simnet = Tyco_net.Simnet

let check = Alcotest.check

let traced_config = { Cluster.default_config with Cluster.tracing = true }

let run ?(config = traced_config) ?placement src =
  Api.run_program ~config ?placement (Api.parse src)

let tracer (r : Api.result) = Cluster.tracer r.Api.cluster

(* SHIPO: the applet's body migrates to the server and runs there. *)
let ship_src =
  {| site server {
       def S(self) = self?{ applet(p) = (p?(x) = io!printi[x + 100] | S[self]) }
       in export new srv S[srv] }
     site client { import srv from server in new p (srv!applet[p] | p![5]) } |}

(* FETCH: the class byte-code is downloaded by the client. *)
let fetch_src =
  {| site server { export def Applet(p) = p![42] in nil }
     site client { import Applet from server in
                   new p (Applet[p] | p?(v) = io!printi[v]) } |}

(* ------------------------------------------------------------------ *)
(* A minimal JSON syntax checker: enough to assert the Perfetto export
   and the run report are well-formed without a JSON dependency.       *)

exception Bad_json

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c -> incr pos; c
    | None -> raise Bad_json
  in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; ws ()
    | _ -> ()
  in
  let lit w =
    String.iter (fun c -> if next () <> c then raise Bad_json) w
  in
  let string_ () =
    lit "\"";
    let rec go () =
      match next () with
      | '"' -> ()
      | '\\' -> ignore (next ()); go ()
      | _ -> go ()
    in
    go ()
  in
  let number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c -> num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then raise Bad_json
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_ ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some _ -> number ()
    | None -> raise Bad_json
  and obj () =
    lit "{";
    ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        ws (); string_ (); ws (); lit ":"; value (); ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> raise Bad_json
      in
      members ()
  and arr () =
    lit "[";
    ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        value (); ws ();
        match next () with
        | ',' -> elements ()
        | ']' -> ()
        | _ -> raise Bad_json
      in
      elements ()
  in
  match value (); ws (); !pos = n with
  | complete -> complete
  | exception Bad_json -> false

let has hay sub =
  let nh = String.length hay and nn = String.length sub in
  let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Off by default                                                      *)

let tracing_off_by_default () =
  let r = run ~config:Cluster.default_config ship_src in
  check Alcotest.bool "collector disabled" false (Trace.enabled (tracer r));
  check Alcotest.int "no events" 0 (List.length (Trace.events (tracer r)));
  check Alcotest.bool "fresh_span is null" true
    (Trace.is_null (Trace.fresh_span (tracer r) ~parent:Trace.null_span));
  (* the packet log is part of tracing: a run that sends packets keeps
     none of them *)
  check Alcotest.bool "packets sent" true
    (Cluster.packets_sent r.Api.cluster > 0);
  check Alcotest.int "no packet kept" 0
    (List.length (Cluster.packet_trace r.Api.cluster));
  check Alcotest.int "no packet dropped" 0
    (Cluster.packet_trace_dropped r.Api.cluster)

(* ------------------------------------------------------------------ *)
(* Determinism: the trace is a reproducible artifact                   *)

let trace_deterministic () =
  let a = run ship_src and b = run ship_src in
  check Alcotest.bool "events recorded" true (Trace.events (tracer a) <> []);
  check Alcotest.bool "byte-identical archive" true
    (Trace.serialize (tracer a) = Trace.serialize (tracer b));
  check Alcotest.bool "byte-identical chrome json" true
    (Trace.to_chrome_json (tracer a) = Trace.to_chrome_json (tracer b))

(* ------------------------------------------------------------------ *)
(* Causal trees                                                        *)

let span_of (e : Trace.event) = e.Trace.ev_span

(* Every non-root event hangs off another event of the same trace, and
   its trace_id agrees with its parent's. *)
let tree_well_formed events =
  let by_span = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let s = span_of e in
      if s.Trace.span_id <> 0 then Hashtbl.replace by_span s.Trace.span_id s)
    events;
  List.iter
    (fun e ->
      let s = span_of e in
      if s.Trace.span_id <> 0 && s.Trace.parent_id <> 0 then
        match Hashtbl.find_opt by_span s.Trace.parent_id with
        | None ->
            Alcotest.failf "span %d: parent %d emitted no event"
              s.Trace.span_id s.Trace.parent_id
        | Some p ->
            if p.Trace.trace_id <> s.Trace.trace_id then
              Alcotest.failf "span %d: trace %d but parent in trace %d"
                s.Trace.span_id s.Trace.trace_id p.Trace.trace_id)
    events

(* A Send whose packet span also appears as a Deliver on a different
   track: the cross-site edge the flow events draw. *)
let crosses_sites events =
  List.exists
    (fun (e : Trace.event) ->
      match e.Trace.ev_kind with
      | Trace.Send _ ->
          List.exists
            (fun (d : Trace.event) ->
              match d.Trace.ev_kind with
              | Trace.Deliver _ ->
                  (span_of d).Trace.span_id = (span_of e).Trace.span_id
                  && d.Trace.ev_track <> e.Trace.ev_track
              | _ -> false)
            events
      | _ -> false)
    events

let causal_tree_ship () =
  let r = run ship_src in
  let events = Trace.events (tracer r) in
  tree_well_formed events;
  check Alcotest.bool "has cross-site send/deliver edge" true
    (crosses_sites events);
  check Alcotest.bool "object shipment committed" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.ev_kind = Trace.Obj_commit)
       events)

let causal_tree_fetch () =
  let r = run fetch_src in
  let events = Trace.events (tracer r) in
  tree_well_formed events;
  (* the FETCH reply must be causally under the same trace as the
     request that provoked it *)
  let req =
    List.find
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with
        | Trace.Send { pk = Trace.Kfetch_req; _ } -> true
        | _ -> false)
      events
  in
  let rep =
    List.find
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with
        | Trace.Deliver { pk = Trace.Kfetch_rep; _ } -> true
        | _ -> false)
      events
  in
  check Alcotest.int "reply in the request's trace"
    (span_of req).Trace.trace_id (span_of rep).Trace.trace_id;
  check Alcotest.bool "code linked" true
    (List.exists
       (fun (e : Trace.event) ->
         match e.Trace.ev_kind with Trace.Link_code _ -> true | _ -> false)
       events)

(* Under loss with reliable delivery: retransmissions appear on the
   fabric track carrying the packet's own span, so retries stay inside
   the original causal tree rather than starting orphan traces. *)
let causal_tree_retransmit () =
  let config =
    { traced_config with
      Cluster.reliable = true;
      faults = { Simnet.no_faults with Simnet.drop = 0.4 } }
  in
  let r = run ~config ship_src in
  let events = Trace.events (tracer r) in
  tree_well_formed events;
  let retransmits =
    List.filter
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with Trace.Retransmit _ -> true | _ -> false)
      events
  in
  check Alcotest.bool "loss provoked retransmissions" true (retransmits <> []);
  List.iter
    (fun (rt : Trace.event) ->
      check Alcotest.int "retransmit on fabric track" Trace.fabric_track
        rt.Trace.ev_track;
      check Alcotest.bool "retransmit span matches an original send" true
        (List.exists
           (fun (e : Trace.event) ->
             match e.Trace.ev_kind with
             | Trace.Send _ ->
                 (span_of e).Trace.span_id = (span_of rt).Trace.span_id
             | _ -> false)
           events))
    retransmits;
  check Alcotest.bool "acks traced" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.ev_kind = Trace.Ack)
       events)

(* ------------------------------------------------------------------ *)
(* Perfetto export shape                                               *)

let perfetto_shape () =
  let r = run ship_src in
  let json = Trace.to_chrome_json (tracer r) in
  check Alcotest.bool "well-formed json" true (json_valid json);
  check Alcotest.bool "traceEvents array" true (has json "\"traceEvents\"");
  check Alcotest.bool "complete events (run slices)" true
    (has json "\"ph\":\"X\"");
  check Alcotest.bool "flow start" true (has json "\"ph\":\"s\"");
  check Alcotest.bool "flow finish" true (has json "\"ph\":\"f\"");
  check Alcotest.bool "track names" true (has json "process_name");
  check Alcotest.bool "site track present" true (has json "\"server\"")

(* ------------------------------------------------------------------ *)
(* Binary archive round-trip                                           *)

let archive_roundtrip () =
  let r = run fetch_src in
  let tr = tracer r in
  let blob = Trace.serialize tr in
  let ar = Trace.deserialize blob in
  check Alcotest.bool "events preserved" true
    (ar.Trace.ar_events = Trace.events tr);
  check Alcotest.bool "tracks preserved" true
    (ar.Trace.ar_tracks = Trace.tracks tr);
  check Alcotest.int "dropped preserved" (Trace.dropped tr)
    ar.Trace.ar_dropped;
  (* re-export from the archive is stable *)
  check Alcotest.bool "re-serialization identical" true
    (Trace.serialize (Trace.of_archive ar) = blob);
  check Alcotest.bool "chrome export from archive identical" true
    (Trace.to_chrome_json (Trace.of_archive ar) = Trace.to_chrome_json tr)

let archive_malformed () =
  let raises s =
    match Trace.deserialize s with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false
  in
  check Alcotest.bool "bad magic" true (raises "NOPE....");
  check Alcotest.bool "truncated" true (raises "TYCT");
  check Alcotest.bool "empty" true (raises "")

(* ------------------------------------------------------------------ *)
(* Packet trailer wire compatibility                                   *)

let trailer_compat () =
  let r = Netref.make ~kind:Netref.Channel ~heap_id:7 ~site_id:1 ~ip:0 in
  let p = Packet.Pmsg { dst = r; label = "bump"; args = [ Packet.Wint 3 ] } in
  let span = { Trace.trace_id = 9; span_id = 11; parent_id = 9 } in
  let traced = Packet.to_string_traced ~ctx:span p in
  let plain = Packet.to_string p in
  (* old decoder on new bytes: trailer ignored *)
  check Alcotest.bool "legacy decoder reads traced packet" true
    (Packet.to_string (Packet.of_string traced) = plain);
  (* new decoder on both generations *)
  (match Packet.of_string_traced traced with
  | _, Some s -> check Alcotest.bool "span survives the wire" true (s = span)
  | _, None -> Alcotest.fail "trailer lost");
  (match Packet.of_string_traced plain with
  | q, None ->
      check Alcotest.bool "untraced packet intact" true
        (Packet.to_string q = plain)
  | _, Some _ -> Alcotest.fail "phantom span");
  (* a null span costs zero bytes *)
  check Alcotest.bool "null ctx adds no trailer" true
    (Packet.to_string_traced ~ctx:Trace.null_span p = plain);
  (* the latency model is not perturbed by observation *)
  check Alcotest.int "byte_size excludes trailer" (String.length plain)
    (Packet.byte_size p)

(* ------------------------------------------------------------------ *)
(* Outputs unperturbed by observation                                  *)

let tracing_preserves_outputs () =
  let a = run ~config:Cluster.default_config ship_src in
  let b = run ship_src in
  check Alcotest.bool "same outputs" true
    (List.map snd a.Api.outputs = List.map snd b.Api.outputs);
  check Alcotest.int "same virtual time" a.Api.virtual_ns b.Api.virtual_ns;
  check Alcotest.int "same packets" a.Api.packets b.Api.packets

(* ------------------------------------------------------------------ *)
(* Report: total on idle sites, JSON stays parseable                   *)

let report_idle_site_json () =
  (* one site never runs a thread or sees a packet *)
  let r =
    run ~config:Cluster.default_config
      {| site a { new x (x![1] | x?(v) = io!printi[v]) }
         site idle { nil } |}
  in
  let json = Report.to_json (Report.of_cluster r.Api.cluster) in
  check Alcotest.bool "well-formed json" true (json_valid json);
  check Alcotest.bool "breakdown present" true
    (has json "\"latency_breakdown\"");
  (* no reliable mode -> no retransmit samples -> null, not inf *)
  check Alcotest.bool "empty summary is null" true
    (has json "\"retransmit\":null")

let report_breakdown_populated () =
  let r = run ship_src in
  let rep = Report.of_cluster r.Api.cluster in
  (match rep.Report.breakdown.Report.b_queue_wait with
  | Some s -> check Alcotest.bool "queue-wait samples" true (s.Tyco_support.Stats.Dist.s_n > 0)
  | None -> Alcotest.fail "expected queue-wait samples");
  (match rep.Report.breakdown.Report.b_wire with
  | Some s -> check Alcotest.bool "wire samples" true (s.Tyco_support.Stats.Dist.s_n > 0)
  | None -> Alcotest.fail "expected wire samples");
  check Alcotest.bool "report json valid" true
    (json_valid (Report.to_json rep))

(* ------------------------------------------------------------------ *)
(* Bounded packet log                                                  *)

let packet_log_bounded () =
  let config = { traced_config with Cluster.trace_capacity = 2 } in
  let r = run ~config fetch_src in
  check Alcotest.bool "log bounded" true
    (List.length (Cluster.packet_trace r.Api.cluster) <= 2);
  check Alcotest.bool "evictions counted" true
    (Cluster.packet_trace_dropped r.Api.cluster > 0);
  (* the log also records same-node fast-path deliveries, which are
     excluded from the fabric packet count *)
  check Alcotest.int "dropped + kept = sent"
    (r.Api.packets + Cluster.same_node_fast r.Api.cluster)
    (List.length (Cluster.packet_trace r.Api.cluster)
    + Cluster.packet_trace_dropped r.Api.cluster)

(* ------------------------------------------------------------------ *)
(* Event-ring bound                                                    *)

let event_ring_bounded () =
  let config = { traced_config with Cluster.trace_capacity = 16 } in
  let r = run ~config ship_src in
  let tr = tracer r in
  let tracks =
    List.length
      (List.sort_uniq compare
         (List.map (fun (e : Trace.event) -> e.Trace.ev_track)
            (Trace.events tr)))
  in
  check Alcotest.bool "per-track bound respected" true
    (List.length (Trace.events tr) <= 16 * max tracks 1);
  check Alcotest.bool "drops counted" true (Trace.dropped tr > 0)

(* Batched transport: the batch frame gets its own root span on the
   fabric track — a [Kbatch] Send/Deliver pair Perfetto draws as a flow
   arrow — while the per-packet site-level spans stay intact, so the
   SHIP/FETCH causal trees look exactly as they do unbatched. *)
let causal_tree_batched () =
  List.iter
    (fun (name, src) ->
      let r = run src in
      let events = Trace.events (tracer r) in
      tree_well_formed events;
      check Alcotest.bool
        (Printf.sprintf "%s: per-packet cross-site edge survives" name)
        true (crosses_sites events);
      let batch_sends =
        List.filter
          (fun (e : Trace.event) ->
            match e.Trace.ev_kind with
            | Trace.Send { pk = Trace.Kbatch; _ } -> true
            | _ -> false)
          events
      in
      check Alcotest.bool (Printf.sprintf "%s: batch send present" name)
        true (batch_sends <> []);
      List.iter
        (fun (e : Trace.event) ->
          check Alcotest.int
            (Printf.sprintf "%s: batch send on fabric track" name)
            Trace.fabric_track e.Trace.ev_track;
          check Alcotest.int
            (Printf.sprintf "%s: batch span is a root" name) 0
            (span_of e).Trace.parent_id;
          (* the matching Deliver carries the same span: the flow edge *)
          check Alcotest.bool
            (Printf.sprintf "%s: batch deliver matches" name) true
            (List.exists
               (fun (d : Trace.event) ->
                 match d.Trace.ev_kind with
                 | Trace.Deliver { pk = Trace.Kbatch; _ } ->
                     (span_of d).Trace.span_id = (span_of e).Trace.span_id
                 | _ -> false)
               events))
        batch_sends)
    [ ("ship", ship_src); ("fetch", fetch_src) ]

(* A nonzero flush deadline makes packets sit in the outbox; the wait
   surfaces as [Flush_wait] events on the packet's own span. *)
let flush_wait_traced () =
  let config =
    { traced_config with Cluster.flush_deadline_ns = 50_000 }
  in
  let r = run ~config ship_src in
  let events = Trace.events (tracer r) in
  let waits =
    List.filter
      (fun (e : Trace.event) ->
        match e.Trace.ev_kind with
        | Trace.Flush_wait { ns } -> ns > 0
        | _ -> false)
      events
  in
  check Alcotest.bool "flush waits recorded" true (waits <> []);
  List.iter
    (fun (e : Trace.event) ->
      check Alcotest.int "flush wait on fabric track" Trace.fabric_track
        e.Trace.ev_track)
    waits;
  (* with the default zero deadline nothing waits, so no events *)
  let r0 = run ship_src in
  check Alcotest.bool "no flush waits at deadline 0" true
    (not
       (List.exists
          (fun (e : Trace.event) ->
            match e.Trace.ev_kind with
            | Trace.Flush_wait _ -> true
            | _ -> false)
          (Trace.events (tracer r0))))

(* ------------------------------------------------------------------ *)
(* Parallel runtime tracing                                            *)

(* --domains 1 is a one-shard run of the deterministic engine, so its
   trace is the deterministic trace, byte for byte — span striding
   defaults to (0, 1) and changes nothing. *)
let par_domains1_trace_bit_identical () =
  let prog = Api.parse ship_src in
  let par = Api.run_parallel ~config:traced_config ~domains:1 prog in
  let det = Api.run_program ~config:traced_config prog in
  check Alcotest.bool "events recorded" true
    (Trace.events par.Par_runner.trace <> []);
  check Alcotest.bool "byte-identical archive" true
    (Trace.serialize par.Par_runner.trace = Trace.serialize (tracer det));
  check Alcotest.bool "byte-identical chrome json" true
    (Trace.to_chrome_json par.Par_runner.trace
    = Trace.to_chrome_json (tracer det))

(* Sharded engine at 4 domains: the merged trace keeps well-formed
   causal trees across the SPSC handoff (envelopes carry the sending
   span), tracks come back shard-tagged, and the Perfetto export draws
   cross-shard flow arrows. *)
let par_domains4_traced () =
  let prog = Api.parse ship_src in
  let r = Api.run_parallel ~config:traced_config ~domains:4 prog in
  check Alcotest.bool "clean quiescence" true r.Par_runner.clean;
  let tr = r.Par_runner.trace in
  let events = Trace.events tr in
  check Alcotest.bool "events recorded" true (events <> []);
  tree_well_formed events;
  check Alcotest.bool "cross-shard send/deliver edge" true
    (crosses_sites events);
  (* striding makes span ids globally unique without a shared counter:
     one span id never belongs to two different traces *)
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let s = span_of e in
      if s.Trace.span_id <> 0 then begin
        (match Hashtbl.find_opt by_id s.Trace.span_id with
        | Some t when t <> s.Trace.trace_id ->
            Alcotest.failf "span %d in traces %d and %d" s.Trace.span_id t
              s.Trace.trace_id
        | _ -> ());
        Hashtbl.replace by_id s.Trace.span_id s.Trace.trace_id
      end)
    events;
  let json = Trace.to_chrome_json tr in
  check Alcotest.bool "well-formed json" true (json_valid json);
  check Alcotest.bool "shard-tagged server track" true (has json "shard0/");
  check Alcotest.bool "shard-tagged client track" true (has json "shard1/");
  check Alcotest.bool "fabric track untagged" true
    (not (has json "/fabric"));
  check Alcotest.bool "flow start" true (has json "\"ph\":\"s\"");
  check Alcotest.bool "flow finish" true (has json "\"ph\":\"f\"")

(* Flipped, truncated and extended copies of a traced run's archive,
   shaped like the packet and rtti properties: [deserialize] raises
   [Wire.Malformed] or decodes, and whatever decodes rebuilds a
   collector. *)
let archive_malformed_only =
  let blob = lazy (Trace.serialize (tracer (run fetch_src))) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mangled archives raise only Malformed"
       ~count:2000
       QCheck2.Gen.(
         let* () = unit in
         let s = Lazy.force blob in
         let n = String.length s in
         oneof
           [ map
               (fun flips ->
                 let b = Bytes.of_string s in
                 List.iter
                   (fun (i, x) ->
                     Bytes.set_uint8 b (i mod n)
                       (Bytes.get_uint8 b (i mod n) lxor x))
                   flips;
                 Bytes.to_string b)
               (list_size (int_range 1 3) (pair nat (int_range 1 255)));
             map (fun k -> String.sub s 0 (k mod n)) nat;
             map
               (fun extra -> s ^ extra)
               (string_size ~gen:char (int_range 1 16)) ])
       (fun s ->
         (match Trace.deserialize s with
          | ar -> ignore (Trace.of_archive ar)
          | exception Tyco_support.Wire.Malformed _ -> ());
         true))

let tests =
  [ ("tracing off by default", `Quick, tracing_off_by_default);
    ("trace deterministic", `Quick, trace_deterministic);
    ("causal tree: ship", `Quick, causal_tree_ship);
    ("causal tree: fetch", `Quick, causal_tree_fetch);
    ("causal tree: retransmit under loss", `Quick, causal_tree_retransmit);
    ("causal tree: batched ship/fetch", `Quick, causal_tree_batched);
    ("flush wait traced", `Quick, flush_wait_traced);
    ("perfetto export shape", `Quick, perfetto_shape);
    ("archive round-trip", `Quick, archive_roundtrip);
    ("archive malformed", `Quick, archive_malformed);
    ("packet trailer compatibility", `Quick, trailer_compat);
    ("tracing preserves outputs", `Quick, tracing_preserves_outputs);
    ("report: idle site json", `Quick, report_idle_site_json);
    ("report: breakdown populated", `Quick, report_breakdown_populated);
    ("packet log bounded", `Quick, packet_log_bounded);
    ("event ring bounded", `Quick, event_ring_bounded);
    ( "parallel: domains 1 trace bit-identical",
      `Quick,
      par_domains1_trace_bit_identical );
    ("parallel: domains 4 traced", `Quick, par_domains4_traced);
    archive_malformed_only ]
