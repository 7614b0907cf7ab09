(* Network substrate tests: latency models, packets, export tables,
   name service, and the discrete-event engine. *)

open Tyco_net
module Netref = Tyco_support.Netref
module Wire = Tyco_support.Wire

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Latency models                                                      *)

let latency_hierarchy () =
  let t m = Latency.transfer_ns m ~bytes:64 in
  check Alcotest.bool "shm < myrinet" true
    (t Latency.shared_memory < t Latency.myrinet);
  check Alcotest.bool "myrinet < ethernet" true
    (t Latency.myrinet < t Latency.fast_ethernet)

let latency_bandwidth_matters () =
  let small = Latency.transfer_ns Latency.fast_ethernet ~bytes:10 in
  let large = Latency.transfer_ns Latency.fast_ethernet ~bytes:100_000 in
  (* 100 KB at 100 Mb/s is ~8 ms; far beyond the base latency *)
  check Alcotest.bool "size dominates for large payloads" true
    (large > 50 * small)

let latency_custom () =
  let m =
    Latency.custom ~name:"test" ~latency_ns:100 ~bytes_per_ns:1.0
      ~per_packet_ns:10
  in
  check Alcotest.int "formula" (100 + 10 + 64) (Latency.transfer_ns m ~bytes:64)

(* ------------------------------------------------------------------ *)
(* Packets                                                             *)

let gen_netref =
  QCheck2.Gen.(
    map
      (fun (h, s, i, k) ->
        Netref.make
          ~kind:(if k then Netref.Channel else Netref.Class)
          ~heap_id:h ~site_id:s ~ip:i)
      (quad small_nat small_nat small_nat bool))

let gen_wvalue =
  QCheck2.Gen.(
    oneof
      [ map (fun n -> Packet.Wint n) int;
        map (fun b -> Packet.Wbool b) bool;
        map (fun s -> Packet.Wstr s) (small_string ~gen:printable);
        map (fun r -> Packet.Wref r) gen_netref ])

let gen_packet =
  QCheck2.Gen.(
    oneof
      [ map3
          (fun dst label args -> Packet.Pmsg { dst; label; args })
          gen_netref (small_string ~gen:(char_range 'a' 'z'))
          (list_size (int_range 0 4) gen_wvalue);
        map3
          (fun dst code env ->
            Packet.Pobj
              { dst; code; code_key = (1, 2, 3); mtable = 0; env })
          gen_netref (small_string ~gen:printable)
          (list_size (int_range 0 3) gen_wvalue);
        map
          (fun cls ->
            Packet.Pfetch_req
              { cls; req_id = 7; requester_site = 1; requester_ip = 2 })
          gen_netref;
        map2
          (fun code env_captures ->
            Packet.Pfetch_rep
              { req_id = 3; dst_site = 1; dst_ip = 0; code;
                code_key = (0, 0, 0); group = 0; index = 1; env_captures })
          (small_string ~gen:printable)
          (list_size (int_range 0 3) gen_wvalue);
        map
          (fun nref ->
            Packet.Pns_register { site_name = "a"; id_name = "x"; nref; rtti = "" })
          gen_netref;
        return
          (Packet.Pns_lookup
             { site_name = "a"; id_name = "x"; want_class = true; req_id = 1;
               requester_site = 0; requester_ip = 0 });
        map
          (fun r ->
            Packet.Pns_reply
              { req_id = 9; dst_site = 2; dst_ip = 1; result = r; rtti = "d" })
          (option gen_netref);
        map2
          (fun chans classes ->
            Packet.Prelease { origin_site = 3; origin_ip = 1; chans; classes })
          (list_size (int_range 0 6) (int_range 0 10000))
          (list_size (int_range 0 4) (int_range 0 10000)) ])

let packet_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"packet wire roundtrip" ~count:500 gen_packet
       (fun p ->
         let s = Packet.to_string p in
         Packet.to_string (Packet.of_string s) = s))

let packet_size_is_wire_size =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"byte_size = serialized length" ~count:200
       gen_packet (fun p ->
         Packet.byte_size p = String.length (Packet.to_string p)))

(* Deterministic companion to the property above: one sample of every
   packet and frame constructor, so a size-arithmetic bug in a rarely
   generated branch fails by name rather than by shrunk counterexample.
   [byte_size]/[frame_byte_size] are computed arithmetically (no
   encode-to-measure) and must agree with the encoder exactly. *)
let packet_size_every_constructor () =
  let r = Netref.make ~kind:Netref.Channel ~heap_id:300 ~site_id:2 ~ip:1 in
  let cr = Netref.make ~kind:Netref.Class ~heap_id:0 ~site_id:129 ~ip:3 in
  let args =
    [ Packet.Wint (-5); Packet.Wbool true; Packet.Wstr "payload";
      Packet.Wref r; Packet.Wref cr; Packet.Wint max_int ]
  in
  let samples =
    [ Packet.Pmsg { dst = r; label = "bump"; args };
      Packet.Pmsg { dst = r; label = ""; args = [] };
      Packet.Pobj
        { dst = r; code = String.make 200 '\x7f'; code_key = (1, 2, 300);
          mtable = 129; env = args };
      Packet.Pfetch_req
        { cls = cr; req_id = 1000; requester_site = 0; requester_ip = 200 };
      Packet.Pfetch_rep
        { req_id = 300; dst_site = 1; dst_ip = 0; code = "bytecode";
          code_key = (0, 0, 0); group = 128; index = 1;
          env_captures = args };
      Packet.Pns_register
        { site_name = "server"; id_name = "p"; nref = cr; rtti = "\x01\x02" };
      Packet.Pns_register
        { site_name = ""; id_name = ""; nref = r; rtti = "" };
      Packet.Pns_lookup
        { site_name = "server"; id_name = "p"; want_class = false;
          req_id = 129; requester_site = 3; requester_ip = 1 };
      Packet.Pns_reply
        { req_id = 9; dst_site = 2; dst_ip = 1; result = Some cr; rtti = "d" };
      Packet.Pns_reply
        { req_id = 129; dst_site = 0; dst_ip = 0; result = None; rtti = "" };
      Packet.Prelease
        { origin_site = 2; origin_ip = 1; chans = [ 0; 129; 1_048_577 ];
          classes = [ 3 ] };
      Packet.Prelease
        { origin_site = 0; origin_ip = 0; chans = []; classes = [] } ]
  in
  List.iter
    (fun p ->
      check Alcotest.int
        (Format.asprintf "byte_size %a" Packet.pp p)
        (String.length (Packet.to_string p))
        (Packet.byte_size p))
    samples;
  List.iter
    (fun f ->
      check Alcotest.int
        (Format.asprintf "frame_byte_size %a" Packet.pp_frame f)
        (String.length (Packet.frame_to_string f))
        (Packet.frame_byte_size f))
    [ Packet.Fbatch
        { src_ip = 2; base_seq = 129; ack_floor = 1000; payloads = samples };
      Packet.Fbatch
        { src_ip = 0; base_seq = 0; ack_floor = 0;
          payloads = [ List.hd samples ] };
      Packet.Fcum_ack { src_ip = 3; ack_floor = 12345 } ]

(* [batch_byte_size] is the no-materialize form the simulated fabric
   charges with; it must agree with building the frame and measuring. *)
let batch_size_no_materialize () =
  let r = Netref.make ~kind:Netref.Channel ~heap_id:1 ~site_id:0 ~ip:2 in
  let payloads =
    List.init 5 (fun i ->
        Packet.Pmsg
          { dst = r; label = "m"; args = [ Packet.Wint (i * 1000) ] })
  in
  let payload_bytes =
    List.fold_left (fun a p -> a + Packet.byte_size p) 0 payloads
  in
  let f =
    Packet.Fbatch { src_ip = 7; base_seq = 200; ack_floor = 130; payloads }
  in
  check Alcotest.int "batch_byte_size = frame_byte_size"
    (Packet.frame_byte_size f)
    (Packet.batch_byte_size ~src_ip:7 ~base_seq:200 ~ack_floor:130
       ~count:(List.length payloads) ~payload_bytes);
  check Alcotest.int "and = encoder length"
    (String.length (Packet.frame_to_string f))
    (Packet.batch_byte_size ~src_ip:7 ~base_seq:200 ~ack_floor:130
       ~count:(List.length payloads) ~payload_bytes)

(* The version byte after the batch tag: a decoder must reject a layout
   revision it does not know rather than misparse it. *)
let batch_version_rejected () =
  let f =
    Packet.Fbatch { src_ip = 1; base_seq = 0; ack_floor = 0; payloads = [] }
  in
  let s = Packet.frame_to_string f in
  (* byte 0 is the tag, byte 1 the version *)
  check Alcotest.int "version byte" Packet.batch_version
    (Char.code s.[1]);
  let bumped = Bytes.of_string s in
  Bytes.set bumped 1 (Char.chr (Packet.batch_version + 1));
  check Alcotest.bool "future version rejected" true
    (match Packet.frame_of_string (Bytes.to_string bumped) with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false)

(* Same scheme at the packet layer: [Prelease] carries a version byte
   after its tag. *)
let prelease_version_rejected () =
  let p =
    Packet.Prelease { origin_site = 1; origin_ip = 0; chans = [ 2 ]; classes = [] }
  in
  let s = Packet.to_string p in
  check Alcotest.int "version byte" Packet.prelease_version (Char.code s.[1]);
  check Alcotest.bool "roundtrip" true (Packet.of_string s = p);
  let bumped = Bytes.of_string s in
  Bytes.set bumped 1 (Char.chr (Packet.prelease_version + 1));
  check Alcotest.bool "future version rejected" true
    (match Packet.of_string (Bytes.to_string bumped) with
    | exception Tyco_support.Wire.Malformed _ -> true
    | _ -> false);
  check Alcotest.int "routes to exporter" 6
    (Packet.dst_ip
       (Packet.Prelease { origin_site = 4; origin_ip = 6; chans = []; classes = [] })
       ~ns_ip:0)

let packet_dst_routing () =
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:3 ~ip:7 in
  check Alcotest.int "msg routes to owner ip" 7
    (Packet.dst_ip (Packet.Pmsg { dst = r; label = "l"; args = [] }) ~ns_ip:0);
  check Alcotest.int "ns packets route to ns" 5
    (Packet.dst_ip
       (Packet.Pns_register { site_name = "a"; id_name = "x"; nref = r; rtti = "" })
       ~ns_ip:5)

let packet_malformed () =
  let malformed what s =
    check Alcotest.bool what true
      (match Packet.of_string s with
      | exception Wire.Malformed _ -> true
      | _ -> false)
  in
  malformed "garbage" "\x63zz";
  (* a nine-byte varint can set the sign bit: a length that reads
     negative is malformed, not an argument error from the stdlib *)
  let negative = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  malformed "negative string length" ("\x00\x00\x01\x02\x03" ^ negative);
  malformed "negative list length" ("\x00\x00\x01\x02\x03\x01a" ^ negative)

(* Whatever a peer sends, the TCP node's decoder decodes it or raises
   [Wire.Malformed]: byte-flipped, truncated and extended encodings of
   generated packets, with and without the trace trailer. *)
let gen_mangled =
  QCheck2.Gen.(
    let* p = gen_packet in
    let* traced = bool in
    let s =
      if traced then
        Packet.to_string_traced
          ~ctx:{ Tyco_support.Trace.trace_id = 3; span_id = 5; parent_id = 1 } p
      else Packet.to_string p
    in
    let n = String.length s in
    oneof
      [ map
          (fun flips ->
            let b = Bytes.of_string s in
            List.iter
              (fun (i, x) ->
                Bytes.set_uint8 b (i mod n) (Bytes.get_uint8 b (i mod n) lxor x))
              flips;
            Bytes.to_string b)
          (list_size (int_range 1 3) (pair nat (int_range 1 255)));
        map (fun k -> String.sub s 0 (k mod n)) nat;
        map (fun extra -> s ^ extra) (string_size ~gen:char (int_range 1 16)) ])

let packet_malformed_only =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mangled packets raise only Malformed" ~count:2000
       gen_mangled (fun s ->
         (try ignore (Packet.of_string_traced s) with Wire.Malformed _ -> ());
         true))

(* ------------------------------------------------------------------ *)
(* Export table                                                        *)

let export_table_stable () =
  let t = Export_table.create () in
  let a = Export_table.export t ~uid:10 "chan-a" in
  let b = Export_table.export t ~uid:11 "chan-b" in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.int "re-export reuses" a (Export_table.export t ~uid:10 "chan-a");
  check (Alcotest.option Alcotest.string) "resolve" (Some "chan-b")
    (Export_table.resolve t b);
  check (Alcotest.option Alcotest.string) "unknown" None
    (Export_table.resolve t 99);
  check Alcotest.int "live" 2 (Export_table.live t);
  check Alcotest.int "allocated" 2 (Export_table.allocated t)

(* Removal retires the identifier; a reused slot carries a fresh
   generation so a stale reference can never alias the new entry. *)
let export_table_reclaim () =
  let t = Export_table.create () in
  let a = Export_table.export t ~uid:10 "chan-a" in
  let b = Export_table.export t ~uid:11 "chan-b" in
  check Alcotest.bool "remove live" true (Export_table.remove t a);
  check Alcotest.bool "remove again" false (Export_table.remove t a);
  check (Alcotest.option Alcotest.string) "stale resolves to None" None
    (Export_table.resolve t a);
  check Alcotest.bool "stale was allocated" true (Export_table.was_allocated t a);
  check Alcotest.bool "never-issued was not" false
    (Export_table.was_allocated t 99);
  check Alcotest.int "live after remove" 1 (Export_table.live t);
  check Alcotest.int "reclaimed" 1 (Export_table.reclaimed t);
  (* slot reuse: the freed slot comes back under a new generation *)
  let c = Export_table.export t ~uid:12 "chan-c" in
  check Alcotest.bool "id differs from the stale one" true (c <> a);
  check Alcotest.bool "slot reused" true
    (c land 0xFFFFF = a land 0xFFFFF);
  check (Alcotest.option Alcotest.string) "new entry resolves" (Some "chan-c")
    (Export_table.resolve t c);
  check (Alcotest.option Alcotest.string) "stale still None" None
    (Export_table.resolve t a);
  check Alcotest.int "allocated = live + reclaimed"
    (Export_table.live t + Export_table.reclaimed t)
    (Export_table.allocated t);
  check Alcotest.bool "uid freed too" true
    (Export_table.export t ~uid:10 "chan-a2" <> a);
  ignore b

(* Leases: an entry expires once its expiry passes, unless renewed or
   pinned; unleased entries never expire, and expired ids leave in id
   order whatever order they fell due in. *)
let export_table_leases () =
  let t = Export_table.create () in
  let ids = List.map (fun uid -> Export_table.export t ~uid uid) [ 0; 1; 2; 3; 4 ] in
  let id n = List.nth ids n in
  (* due out of id order: 3 first, then 1, then 0 *)
  Export_table.renew t (id 3) ~until:10;
  Export_table.renew t (id 1) ~until:20;
  Export_table.renew t (id 0) ~until:20;
  Export_table.renew t (id 2) ~until:20;
  Export_table.pin t (id 2);
  (* id 4 is never leased *)
  let removed = ref [] in
  let expire now = Export_table.expire t ~now (fun i v -> removed := (i, v) :: !removed) in
  check Alcotest.int "nothing due yet" 0 (expire 9);
  check Alcotest.int "one due" 1 (expire 10);
  check Alcotest.bool "gone" true (Export_table.resolve t (id 3) = None);
  (* a renewal after queueing postpones without touching the queue *)
  Export_table.renew t (id 1) ~until:40;
  check Alcotest.int "the unrenewed one expires" 1 (expire 25);
  check Alcotest.bool "the renewed one survives" true
    (Export_table.resolve t (id 1) = Some 1);
  check Alcotest.int "then expires" 1 (expire 40);
  check
    Alcotest.(list (pair int int))
    "removals reported with their values, newest first"
    [ (id 1, 1); (id 0, 0); (id 3, 3) ]
    !removed;
  check Alcotest.int "pinned and unleased stay" 2 (Export_table.live t);
  check Alcotest.int "nothing left to expire" 0 (expire max_int);
  (* several due in one sweep leave in id order: the last removed slot
     is the first reused *)
  let t = Export_table.create () in
  let a = Export_table.export t ~uid:0 "a" and b = Export_table.export t ~uid:1 "b" in
  Export_table.renew t b ~until:5;
  Export_table.renew t a ~until:6;
  check Alcotest.int "both" 2 (Export_table.expire t ~now:6 (fun _ _ -> ()));
  let c = Export_table.export t ~uid:2 "c" in
  check Alcotest.int "reuses the higher id's slot" (b land 0xFFFFF) (c land 0xFFFFF);
  check Alcotest.int "allocated = live + reclaimed"
    (Export_table.live t + Export_table.reclaimed t)
    (Export_table.allocated t)

(* ------------------------------------------------------------------ *)
(* Name service                                                        *)

let ns_register_lookup () =
  let ns = Nameservice.create () in
  let r = Netref.make ~kind:Netref.Channel ~heap_id:4 ~site_id:0 ~ip:1 in
  let released = Nameservice.register_id ns ~site:"a" ~name:"p" r in
  check Alcotest.int "no waiters yet" 0 (List.length released);
  let w = { Nameservice.w_req_id = 1; w_site = 2; w_ip = 3 } in
  match Nameservice.lookup_id ns ~site:"a" ~name:"p" w with
  | Some (r', _) -> check Alcotest.bool "found" true (Netref.equal r r')
  | None -> Alcotest.fail "should resolve immediately"

let ns_parks_and_releases () =
  let ns = Nameservice.create () in
  let w1 = { Nameservice.w_req_id = 1; w_site = 2; w_ip = 3 } in
  let w2 = { Nameservice.w_req_id = 2; w_site = 4; w_ip = 5 } in
  check Alcotest.bool "parked" true
    (Nameservice.lookup_id ns ~site:"a" ~name:"p" w1 = None);
  check Alcotest.bool "parked again" true
    (Nameservice.lookup_id ns ~site:"a" ~name:"p" w2 = None);
  check Alcotest.int "pending" 2 (Nameservice.pending ns);
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:0 ~ip:0 in
  let released = Nameservice.register_id ns ~site:"a" ~name:"p" r in
  check Alcotest.int "both released in order" 2 (List.length released);
  check Alcotest.int "fifo" 1 (List.hd released).Nameservice.w_req_id;
  check Alcotest.int "drained" 0 (Nameservice.pending ns)

(* ------------------------------------------------------------------ *)
(* Simnet                                                              *)

let simnet_event_order () =
  let sim = Simnet.create ~seed:1 () in
  let log = ref [] in
  Simnet.schedule sim ~delay:30 (fun () -> log := 30 :: !log);
  Simnet.schedule sim ~delay:10 (fun () -> log := 10 :: !log);
  Simnet.schedule sim ~delay:20 (fun () -> log := 20 :: !log);
  ignore (Simnet.run sim ());
  check (Alcotest.list Alcotest.int) "time order" [ 10; 20; 30 ]
    (List.rev !log);
  check Alcotest.int "clock" 30 (Simnet.now sim)

let simnet_fifo_ties () =
  let sim = Simnet.create ~seed:1 () in
  let log = ref [] in
  for i = 1 to 5 do
    Simnet.schedule sim ~delay:100 (fun () -> log := i :: !log)
  done;
  ignore (Simnet.run sim ());
  check (Alcotest.list Alcotest.int) "insertion order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let simnet_cascading () =
  let sim = Simnet.create ~seed:1 () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Simnet.schedule sim ~delay:5 tick
  in
  Simnet.schedule sim ~delay:5 tick;
  let events = Simnet.run sim () in
  check Alcotest.int "events" 10 events;
  check Alcotest.int "clock" 50 (Simnet.now sim)

let simnet_run_guard () =
  let sim = Simnet.create ~seed:1 () in
  let rec forever () = Simnet.schedule sim ~delay:1 forever in
  Simnet.schedule sim ~delay:1 forever;
  check Alcotest.bool "livelock detected" true
    (match Simnet.run sim ~max_events:1000 () with
    | exception Failure _ -> true
    | _ -> false)

let simnet_topology_links () =
  let sim = Simnet.create ~seed:1 () in
  let same = Simnet.packet_delay sim ~src_ip:1 ~dst_ip:1 ~bytes:64 in
  let cross = Simnet.packet_delay sim ~src_ip:1 ~dst_ip:2 ~bytes:64 in
  check Alcotest.bool "intra < inter" true (same < cross);
  let topo =
    { Simnet.default_topology with Simnet.external_ips = [ 9 ] }
  in
  let sim = Simnet.create ~topology:topo ~seed:1 () in
  let ext = Simnet.packet_delay sim ~src_ip:1 ~dst_ip:9 ~bytes:64 in
  check Alcotest.bool "external slowest" true (ext > cross)

let simnet_negative_delay () =
  let sim = Simnet.create ~seed:1 () in
  check Alcotest.bool "rejected" true
    (match Simnet.schedule sim ~delay:(-5) (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let simnet_run_budget_boundary () =
  (* a queue that drains in exactly [max_events] events completes; one
     more pending event over the budget raises *)
  let chain n =
    let sim = Simnet.create ~seed:1 () in
    let left = ref n in
    let rec tick () =
      decr left;
      if !left > 0 then Simnet.schedule sim ~delay:1 tick
    in
    Simnet.schedule sim ~delay:1 tick;
    sim
  in
  check Alcotest.int "exact budget drains" 10
    (Simnet.run (chain 10) ~max_events:10 ());
  check Alcotest.bool "budget + 1 raises" true
    (match Simnet.run (chain 11) ~max_events:10 () with
    | exception Failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fault model                                                         *)

let fault_free_identity () =
  let sim = Simnet.create ~seed:1 () in
  let v = Simnet.fault_verdict sim ~src_ip:1 ~dst_ip:2 ~base_delay:500 in
  check (Alcotest.list Alcotest.int) "one copy, base delay" [ 500 ]
    v.Simnet.v_delays;
  check Alcotest.int "nothing dropped" 0 v.Simnet.v_dropped

let fault_drop_everything () =
  let fm = { Simnet.no_faults with Simnet.drop = 1.0 } in
  let sim = Simnet.create ~faults:fm ~seed:1 () in
  let v = Simnet.fault_verdict sim ~src_ip:1 ~dst_ip:2 ~base_delay:500 in
  check (Alcotest.list Alcotest.int) "no copies" [] v.Simnet.v_delays;
  check Alcotest.bool "drop counted" true (v.Simnet.v_dropped >= 1)

let fault_duplicate_everything () =
  let fm = { Simnet.no_faults with Simnet.duplicate = 1.0 } in
  let sim = Simnet.create ~faults:fm ~seed:1 () in
  let v = Simnet.fault_verdict sim ~src_ip:1 ~dst_ip:2 ~base_delay:500 in
  check Alcotest.int "two copies" 2 (List.length v.Simnet.v_delays);
  check Alcotest.bool "flagged" true v.Simnet.v_duplicated

let fault_intra_node_exempt () =
  (* same-ip traffic is shared memory: never faulted even at drop 1 *)
  let fm = { Simnet.no_faults with Simnet.drop = 1.0; duplicate = 1.0 } in
  let sim = Simnet.create ~faults:fm ~seed:1 () in
  let v = Simnet.fault_verdict sim ~src_ip:3 ~dst_ip:3 ~base_delay:42 in
  check (Alcotest.list Alcotest.int) "delivered untouched" [ 42 ]
    v.Simnet.v_delays

let fault_partition_window () =
  let fm =
    { Simnet.no_faults with
      Simnet.partitions =
        [ { Simnet.p_a = 1; p_b = 2; p_from = 0; p_until = 100 } ] }
  in
  let sim = Simnet.create ~faults:fm ~seed:1 () in
  check Alcotest.bool "cut at t=0" true
    (Simnet.partitioned sim ~src_ip:1 ~dst_ip:2);
  check Alcotest.bool "symmetric" true
    (Simnet.partitioned sim ~src_ip:2 ~dst_ip:1);
  check Alcotest.bool "other links untouched" false
    (Simnet.partitioned sim ~src_ip:1 ~dst_ip:3);
  let v = Simnet.fault_verdict sim ~src_ip:1 ~dst_ip:2 ~base_delay:10 in
  check (Alcotest.list Alcotest.int) "dropped while cut" [] v.Simnet.v_delays;
  let healed = ref true in
  Simnet.schedule sim ~delay:150 (fun () ->
      healed := not (Simnet.partitioned sim ~src_ip:1 ~dst_ip:2));
  ignore (Simnet.run sim ());
  check Alcotest.bool "healed after p_until" true !healed

let fault_determinism () =
  let fm =
    { Simnet.drop = 0.3; duplicate = 0.2; reorder = 0.5; reorder_ns = 1_000;
      partitions = [] }
  in
  let roll seed =
    let sim = Simnet.create ~faults:fm ~seed () in
    List.init 50 (fun _ ->
        (Simnet.fault_verdict sim ~src_ip:0 ~dst_ip:1 ~base_delay:100)
          .Simnet.v_delays)
  in
  check Alcotest.bool "same seed, same verdicts" true (roll 7 = roll 7);
  check Alcotest.bool "different seed differs" true (roll 7 <> roll 8)

(* ------------------------------------------------------------------ *)
(* Transport frames                                                    *)

let gen_frame =
  QCheck2.Gen.(
    oneof
      [ map3
          (fun src_ip (base_seq, ack_floor) payloads ->
            Packet.Fbatch { src_ip; base_seq; ack_floor; payloads })
          small_nat
          (pair small_nat small_nat)
          (list_size (int_range 0 6) gen_packet);
        map2
          (fun src_ip ack_floor -> Packet.Fcum_ack { src_ip; ack_floor })
          small_nat small_nat ])

let frame_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"frame wire roundtrip" ~count:300 gen_frame
       (fun f ->
         let s = Packet.frame_to_string f in
         Packet.frame_to_string (Packet.frame_of_string s) = s
         && Packet.frame_byte_size f = String.length s))

(* ------------------------------------------------------------------ *)
(* Name service: parked-waiter ordering across interleaved keys        *)

let ns_waiter_ordering () =
  let ns = Nameservice.create () in
  let w id = { Nameservice.w_req_id = id; w_site = id; w_ip = 0 } in
  (* interleave parks on two distinct keys *)
  ignore (Nameservice.lookup_id ns ~site:"a" ~name:"p" (w 1));
  ignore (Nameservice.lookup_id ns ~site:"a" ~name:"q" (w 2));
  ignore (Nameservice.lookup_id ns ~site:"a" ~name:"p" (w 3));
  ignore (Nameservice.lookup_id ns ~site:"a" ~name:"q" (w 4));
  ignore (Nameservice.lookup_id ns ~site:"a" ~name:"p" (w 5));
  check Alcotest.int "all parked" 5 (Nameservice.pending ns);
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:0 ~ip:0 in
  let released = Nameservice.register_id ns ~site:"a" ~name:"p" r in
  check (Alcotest.list Alcotest.int) "p's waiters, FIFO" [ 1; 3; 5 ]
    (List.map (fun x -> x.Nameservice.w_req_id) released);
  check Alcotest.int "q still parked" 2 (Nameservice.pending ns);
  let released = Nameservice.register_id ns ~site:"a" ~name:"q" r in
  check (Alcotest.list Alcotest.int) "q's waiters, FIFO" [ 2; 4 ]
    (List.map (fun x -> x.Nameservice.w_req_id) released);
  check Alcotest.int "drained" 0 (Nameservice.pending ns);
  check Alcotest.int "re-registration releases nobody" 0
    (List.length (Nameservice.register_id ns ~site:"a" ~name:"p" r))

let tests =
  [ ("latency hierarchy", `Quick, latency_hierarchy);
    ("latency bandwidth", `Quick, latency_bandwidth_matters);
    ("latency custom formula", `Quick, latency_custom);
    packet_roundtrip;
    packet_size_is_wire_size;
    ("byte_size per constructor", `Quick, packet_size_every_constructor);
    ("batch size without materializing", `Quick, batch_size_no_materialize);
    ("batch version byte rejected", `Quick, batch_version_rejected);
    ("prelease version byte rejected", `Quick, prelease_version_rejected);
    ("packet routing", `Quick, packet_dst_routing);
    ("packet malformed", `Quick, packet_malformed);
    packet_malformed_only;
    ("export table", `Quick, export_table_stable);
    ("export table reclamation", `Quick, export_table_reclaim);
    ("export table leases", `Quick, export_table_leases);
    ("nameservice register/lookup", `Quick, ns_register_lookup);
    ("nameservice parks waiters", `Quick, ns_parks_and_releases);
    ("simnet event order", `Quick, simnet_event_order);
    ("simnet fifo ties", `Quick, simnet_fifo_ties);
    ("simnet cascading events", `Quick, simnet_cascading);
    ("simnet livelock guard", `Quick, simnet_run_guard);
    ("simnet budget boundary", `Quick, simnet_run_budget_boundary);
    ("simnet topology links", `Quick, simnet_topology_links);
    ("simnet negative delay", `Quick, simnet_negative_delay);
    ("faults: clean link identity", `Quick, fault_free_identity);
    ("faults: drop all", `Quick, fault_drop_everything);
    ("faults: duplicate all", `Quick, fault_duplicate_everything);
    ("faults: intra-node exempt", `Quick, fault_intra_node_exempt);
    ("faults: partition window", `Quick, fault_partition_window);
    ("faults: deterministic", `Quick, fault_determinism);
    frame_roundtrip;
    ("nameservice waiter ordering", `Quick, ns_waiter_ordering) ]
