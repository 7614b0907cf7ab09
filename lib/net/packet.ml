module Wire = Tyco_support.Wire
module Netref = Tyco_support.Netref
module Trace = Tyco_support.Trace

type wvalue =
  | Wint of int
  | Wbool of bool
  | Wstr of string
  | Wref of Netref.t

type t =
  | Pmsg of { dst : Netref.t; label : string; args : wvalue list }
  | Pobj of {
      dst : Netref.t;
      code : string;
      code_key : int * int * int;
      mtable : int;
      env : wvalue list;
    }
  | Pfetch_req of {
      cls : Netref.t;
      req_id : int;
      requester_site : int;
      requester_ip : int;
    }
  | Pfetch_rep of {
      req_id : int;
      dst_site : int;
      dst_ip : int;
      code : string;
      code_key : int * int * int;
      group : int;
      index : int;
      env_captures : wvalue list;
    }
  | Pns_register of {
      site_name : string;
      id_name : string;
      nref : Netref.t;
      rtti : string;
    }
  | Pns_lookup of {
      site_name : string;
      id_name : string;
      want_class : bool;
      req_id : int;
      requester_site : int;
      requester_ip : int;
    }
  | Pns_reply of {
      req_id : int;
      dst_site : int;
      dst_ip : int;
      result : Netref.t option;
      rtti : string;
    }
  | Prelease of {
      origin_site : int;  (* the exporter whose leases are refreshed *)
      origin_ip : int;
      chans : int list;   (* channel heap ids the sender still holds *)
      classes : int list; (* class heap ids the sender still holds *)
    }

(* The packet-kind tag carried by trace events. *)
let trace_pk = function
  | Pmsg _ -> Trace.Kmsg
  | Pobj _ -> Trace.Kobj
  | Pfetch_req _ -> Trace.Kfetch_req
  | Pfetch_rep _ -> Trace.Kfetch_rep
  | Pns_register _ -> Trace.Kns_register
  | Pns_lookup _ -> Trace.Kns_lookup
  | Pns_reply _ -> Trace.Kns_reply
  | Prelease _ -> Trace.Kprelease

let dst_ip t ~ns_ip =
  match t with
  | Pmsg { dst; _ } | Pobj { dst; _ } -> dst.Netref.ip
  | Pfetch_req { cls; _ } -> cls.Netref.ip
  | Pfetch_rep { dst_ip; _ } | Pns_reply { dst_ip; _ } -> dst_ip
  | Prelease { origin_ip; _ } -> origin_ip
  | Pns_register _ | Pns_lookup _ -> ns_ip

let encode_wvalue enc = function
  | Wint n ->
      Wire.u8 enc 0;
      Wire.zint enc n
  | Wbool b ->
      Wire.u8 enc 1;
      Wire.bool enc b
  | Wstr s ->
      Wire.u8 enc 2;
      Wire.string enc s
  | Wref r ->
      Wire.u8 enc 3;
      Netref.encode enc r

let decode_wvalue dec =
  match Wire.read_u8 dec with
  | 0 -> Wint (Wire.read_zint dec)
  | 1 -> Wbool (Wire.read_bool dec)
  | 2 -> Wstr (Wire.read_string dec)
  | 3 -> Wref (Netref.decode dec)
  | n -> raise (Wire.Malformed (Printf.sprintf "wvalue tag %d" n))

let encode_key enc (a, b, c) =
  Wire.varint enc a;
  Wire.varint enc b;
  Wire.varint enc c

let decode_key dec =
  let a = Wire.read_varint dec in
  let b = Wire.read_varint dec in
  let c = Wire.read_varint dec in
  (a, b, c)

(* [Prelease] carries its own version byte, like [Fbatch]: the packet
   tag alone tells an old decoder only that the packet is unknown
   ([Malformed "packet tag 7"], dropped cleanly), while a decoder that
   knows the tag can still reject a future layout change explicitly. *)
let prelease_version = 1

let encode enc = function
  | Pmsg { dst; label; args } ->
      Wire.u8 enc 0;
      Netref.encode enc dst;
      Wire.string enc label;
      Wire.list enc encode_wvalue args
  | Pobj { dst; code; code_key; mtable; env } ->
      Wire.u8 enc 1;
      Netref.encode enc dst;
      Wire.string enc code;
      encode_key enc code_key;
      Wire.varint enc mtable;
      Wire.list enc encode_wvalue env
  | Pfetch_req { cls; req_id; requester_site; requester_ip } ->
      Wire.u8 enc 2;
      Netref.encode enc cls;
      Wire.varint enc req_id;
      Wire.varint enc requester_site;
      Wire.varint enc requester_ip
  | Pfetch_rep { req_id; dst_site; dst_ip; code; code_key; group; index; env_captures } ->
      Wire.u8 enc 3;
      Wire.varint enc req_id;
      Wire.varint enc dst_site;
      Wire.varint enc dst_ip;
      Wire.string enc code;
      encode_key enc code_key;
      Wire.varint enc group;
      Wire.varint enc index;
      Wire.list enc encode_wvalue env_captures
  | Pns_register { site_name; id_name; nref; rtti } ->
      Wire.u8 enc 4;
      Wire.string enc site_name;
      Wire.string enc id_name;
      Netref.encode enc nref;
      Wire.string enc rtti
  | Pns_lookup { site_name; id_name; want_class; req_id; requester_site; requester_ip } ->
      Wire.u8 enc 5;
      Wire.string enc site_name;
      Wire.string enc id_name;
      Wire.bool enc want_class;
      Wire.varint enc req_id;
      Wire.varint enc requester_site;
      Wire.varint enc requester_ip
  | Pns_reply { req_id; dst_site; dst_ip; result; rtti } ->
      Wire.u8 enc 6;
      Wire.varint enc req_id;
      Wire.varint enc dst_site;
      Wire.varint enc dst_ip;
      Wire.option enc Netref.encode result;
      Wire.string enc rtti
  | Prelease { origin_site; origin_ip; chans; classes } ->
      Wire.u8 enc 7;
      Wire.u8 enc prelease_version;
      Wire.varint enc origin_site;
      Wire.varint enc origin_ip;
      Wire.list enc Wire.varint chans;
      Wire.list enc Wire.varint classes

let decode dec =
  match Wire.read_u8 dec with
  | 0 ->
      let dst = Netref.decode dec in
      let label = Wire.read_string dec in
      let args = Wire.read_list dec decode_wvalue in
      Pmsg { dst; label; args }
  | 1 ->
      let dst = Netref.decode dec in
      let code = Wire.read_string dec in
      let code_key = decode_key dec in
      let mtable = Wire.read_varint dec in
      let env = Wire.read_list dec decode_wvalue in
      Pobj { dst; code; code_key; mtable; env }
  | 2 ->
      let cls = Netref.decode dec in
      let req_id = Wire.read_varint dec in
      let requester_site = Wire.read_varint dec in
      let requester_ip = Wire.read_varint dec in
      Pfetch_req { cls; req_id; requester_site; requester_ip }
  | 3 ->
      let req_id = Wire.read_varint dec in
      let dst_site = Wire.read_varint dec in
      let dst_ip = Wire.read_varint dec in
      let code = Wire.read_string dec in
      let code_key = decode_key dec in
      let group = Wire.read_varint dec in
      let index = Wire.read_varint dec in
      let env_captures = Wire.read_list dec decode_wvalue in
      Pfetch_rep { req_id; dst_site; dst_ip; code; code_key; group; index; env_captures }
  | 4 ->
      let site_name = Wire.read_string dec in
      let id_name = Wire.read_string dec in
      let nref = Netref.decode dec in
      let rtti = Wire.read_string dec in
      Pns_register { site_name; id_name; nref; rtti }
  | 5 ->
      let site_name = Wire.read_string dec in
      let id_name = Wire.read_string dec in
      let want_class = Wire.read_bool dec in
      let req_id = Wire.read_varint dec in
      let requester_site = Wire.read_varint dec in
      let requester_ip = Wire.read_varint dec in
      Pns_lookup { site_name; id_name; want_class; req_id; requester_site; requester_ip }
  | 6 ->
      let req_id = Wire.read_varint dec in
      let dst_site = Wire.read_varint dec in
      let dst_ip = Wire.read_varint dec in
      let result = Wire.read_option dec Netref.decode in
      let rtti = Wire.read_string dec in
      Pns_reply { req_id; dst_site; dst_ip; result; rtti }
  | 7 -> (
      match Wire.read_u8 dec with
      | v when v = prelease_version ->
          let origin_site = Wire.read_varint dec in
          let origin_ip = Wire.read_varint dec in
          let chans = Wire.read_list dec Wire.read_varint in
          let classes = Wire.read_list dec Wire.read_varint in
          Prelease { origin_site; origin_ip; chans; classes }
      | v -> raise (Wire.Malformed (Printf.sprintf "prelease version %d" v)))
  | n -> raise (Wire.Malformed (Printf.sprintf "packet tag %d" n))

let to_string p = Wire.with_encoder (fun enc -> encode enc p)

let of_string s = decode (Wire.decoder s)

(* ------------------------------------------------------------------ *)
(* Trace-context trailer.

   The causal span rides {e after} the packet body as a versioned
   optional extension: a decoder that does not know about it stops at
   the end of the body and never reads the trailer, and a decoder that
   does probes [at_end] — so traced and untraced daemons interoperate
   in both directions.  The trailer is deliberately {e not} charged by
   [byte_size]: tracing must not perturb the latency model it is
   measuring. *)

let ctx_version = 1

let encode_ctx enc (sp : Trace.span) =
  Wire.u8 enc ctx_version;
  Wire.varint enc sp.Trace.trace_id;
  Wire.varint enc sp.Trace.span_id;
  Wire.varint enc sp.Trace.parent_id

let decode_ctx dec =
  if Wire.at_end dec then None
  else
    match Wire.read_u8 dec with
    | 1 ->
        let trace_id = Wire.read_varint dec in
        let span_id = Wire.read_varint dec in
        let parent_id = Wire.read_varint dec in
        Some { Trace.trace_id; span_id; parent_id }
    | _ -> None (* later trailer version: skip what we can't parse *)

let encode_traced ?ctx enc p =
  encode enc p;
  match ctx with
  | Some sp when not (Trace.is_null sp) -> encode_ctx enc sp
  | _ -> ()

let to_string_traced ?ctx p = Wire.with_encoder (fun enc -> encode_traced ?ctx enc p)

let of_string_traced s =
  let dec = Wire.decoder s in
  let p = decode dec in
  (p, decode_ctx dec)

(* ------------------------------------------------------------------ *)
(* Byte accounting without encoding.

   The simulated transport only needs packet {e sizes} (the bandwidth
   term of the latency model); fully encoding into a fresh buffer per
   send just to measure its length dominated the transport hot path.
   These mirror the encoders arithmetically; test_net asserts
   [byte_size p = String.length (to_string p)] for every constructor
   so the two cannot drift. *)

let wvalue_size = function
  | Wint n -> 1 + Wire.zint_size n
  | Wbool _ -> 2
  | Wstr s -> 1 + Wire.string_size s
  | Wref r -> 1 + Netref.byte_size r

let wvalues_size args =
  List.fold_left
    (fun acc w -> acc + wvalue_size w)
    (Wire.varint_size (List.length args))
    args

let key_size (a, b, c) =
  Wire.varint_size a + Wire.varint_size b + Wire.varint_size c

let byte_size = function
  | Pmsg { dst; label; args } ->
      1 + Netref.byte_size dst + Wire.string_size label + wvalues_size args
  | Pobj { dst; code; code_key; mtable; env } ->
      1 + Netref.byte_size dst + Wire.string_size code + key_size code_key
      + Wire.varint_size mtable + wvalues_size env
  | Pfetch_req { cls; req_id; requester_site; requester_ip } ->
      1 + Netref.byte_size cls + Wire.varint_size req_id
      + Wire.varint_size requester_site
      + Wire.varint_size requester_ip
  | Pfetch_rep { req_id; dst_site; dst_ip; code; code_key; group; index;
                 env_captures } ->
      1 + Wire.varint_size req_id + Wire.varint_size dst_site
      + Wire.varint_size dst_ip + Wire.string_size code + key_size code_key
      + Wire.varint_size group + Wire.varint_size index
      + wvalues_size env_captures
  | Pns_register { site_name; id_name; nref; rtti } ->
      1 + Wire.string_size site_name + Wire.string_size id_name
      + Netref.byte_size nref + Wire.string_size rtti
  | Pns_lookup { site_name; id_name; want_class = _; req_id; requester_site;
                 requester_ip } ->
      1 + Wire.string_size site_name + Wire.string_size id_name + 1
      + Wire.varint_size req_id
      + Wire.varint_size requester_site
      + Wire.varint_size requester_ip
  | Pns_reply { req_id; dst_site; dst_ip; result; rtti } ->
      1 + Wire.varint_size req_id + Wire.varint_size dst_site
      + Wire.varint_size dst_ip
      + (match result with None -> 1 | Some r -> 1 + Netref.byte_size r)
      + Wire.string_size rtti
  | Prelease { origin_site; origin_ip; chans; classes } ->
      let ids_size ids =
        List.fold_left
          (fun acc id -> acc + Wire.varint_size id)
          (Wire.varint_size (List.length ids))
          ids
      in
      2 (* tag + version *)
      + Wire.varint_size origin_site + Wire.varint_size origin_ip
      + ids_size chans + ids_size classes

(* ------------------------------------------------------------------ *)
(* Transport frames: how packets cross between nodes.                 *)

type frame =
  | Fbatch of {
      src_ip : int;
      base_seq : int;
      ack_floor : int;
      payloads : t list;
    }
  | Fcum_ack of { src_ip : int; ack_floor : int }

(* [Fbatch] carries its own version byte: the frame tag alone tells an
   old decoder only that the frame is unknown (it raises [Malformed
   "frame tag 2"] and drops it cleanly), while a decoder that knows the
   tag can still reject a future layout change explicitly. *)
let batch_version = 1

let encode_frame enc = function
  | Fbatch { src_ip; base_seq; ack_floor; payloads } ->
      Wire.u8 enc 2;
      Wire.u8 enc batch_version;
      Wire.varint enc src_ip;
      Wire.varint enc base_seq;
      Wire.varint enc ack_floor;
      Wire.list enc encode payloads
  | Fcum_ack { src_ip; ack_floor } ->
      Wire.u8 enc 3;
      Wire.varint enc src_ip;
      Wire.varint enc ack_floor

let decode_frame dec =
  match Wire.read_u8 dec with
  | 2 ->
      (match Wire.read_u8 dec with
      | v when v = batch_version ->
          let src_ip = Wire.read_varint dec in
          let base_seq = Wire.read_varint dec in
          let ack_floor = Wire.read_varint dec in
          let payloads = Wire.read_list dec decode in
          Fbatch { src_ip; base_seq; ack_floor; payloads }
      | v -> raise (Wire.Malformed (Printf.sprintf "batch version %d" v)))
  | 3 ->
      let src_ip = Wire.read_varint dec in
      let ack_floor = Wire.read_varint dec in
      Fcum_ack { src_ip; ack_floor }
  | n -> raise (Wire.Malformed (Printf.sprintf "frame tag %d" n))

let frame_to_string f = Wire.with_encoder (fun enc -> encode_frame enc f)

let frame_of_string s = decode_frame (Wire.decoder s)

let frame_byte_size = function
  | Fbatch { src_ip; base_seq; ack_floor; payloads } ->
      2 (* tag + version *)
      + Wire.varint_size src_ip + Wire.varint_size base_seq
      + Wire.varint_size ack_floor
      + Wire.varint_size (List.length payloads)
      + List.fold_left (fun acc p -> acc + byte_size p) 0 payloads
  | Fcum_ack { src_ip; ack_floor } ->
      1 + Wire.varint_size src_ip + Wire.varint_size ack_floor

let batch_byte_size ~src_ip ~base_seq ~ack_floor ~count ~payload_bytes =
  2 + Wire.varint_size src_ip + Wire.varint_size base_seq
  + Wire.varint_size ack_floor + Wire.varint_size count + payload_bytes

let pp_wvalue ppf = function
  | Wint n -> Format.fprintf ppf "%d" n
  | Wbool b -> Format.fprintf ppf "%b" b
  | Wstr s -> Format.fprintf ppf "%S" s
  | Wref r -> Netref.pp ppf r

let pp_frame ppf = function
  | Fbatch { src_ip; base_seq; ack_floor; payloads } ->
      Format.fprintf ppf "batch %d#%d+%d ack<%d" src_ip base_seq
        (List.length payloads) ack_floor
  | Fcum_ack { src_ip; ack_floor } ->
      Format.fprintf ppf "cum-ack %d<%d" src_ip ack_floor

let pp ppf = function
  | Pmsg { dst; label; args } ->
      Format.fprintf ppf "msg %a!%s/%d" Netref.pp dst label (List.length args)
  | Pobj { dst; env; _ } ->
      Format.fprintf ppf "obj %a (env=%d)" Netref.pp dst (List.length env)
  | Pfetch_req { cls; req_id; _ } ->
      Format.fprintf ppf "fetch-req#%d %a" req_id Netref.pp cls
  | Pfetch_rep { req_id; index; _ } ->
      Format.fprintf ppf "fetch-rep#%d idx=%d" req_id index
  | Pns_register { site_name; id_name; nref; _ } ->
      Format.fprintf ppf "ns-register %s.%s=%a" site_name id_name Netref.pp nref
  | Pns_lookup { site_name; id_name; req_id; _ } ->
      Format.fprintf ppf "ns-lookup#%d %s.%s" req_id site_name id_name
  | Pns_reply { req_id; result; _ } ->
      Format.fprintf ppf "ns-reply#%d %s" req_id
        (match result with Some _ -> "found" | None -> "pending")
  | Prelease { origin_site; chans; classes; _ } ->
      Format.fprintf ppf "lease-refresh site#%d chans=%d classes=%d"
        origin_site (List.length chans) (List.length classes)
