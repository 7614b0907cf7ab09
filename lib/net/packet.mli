(** Packets exchanged between TyCOd daemons (paper §5).

    Three families:
    - process shipments — remote method invocations ([Pmsg], the SHIPM
      path) and object migrations ([Pobj], the SHIPO path);
    - the class-download protocol ([Pfetch_req]/[Pfetch_rep], the FETCH
      path);
    - name-service traffic for the [export]/[import] instructions.

    All payloads use the hardware-independent {!Tyco_support.Wire}
    format; byte-code travels as an opaque serialized sub-unit produced
    by {!Tyco_compiler.Bytecode}.  {!byte_size} feeds the latency
    models. *)

type wvalue =
  | Wint of int
  | Wbool of bool
  | Wstr of string
  | Wref of Tyco_support.Netref.t
      (** channel or class reference, per its [kind] *)

type t =
  | Pmsg of { dst : Tyco_support.Netref.t; label : string; args : wvalue list }
  | Pobj of {
      dst : Tyco_support.Netref.t;
      code : string;        (** serialized sub-unit *)
      code_key : int * int * int;  (** (ip, site, mtable) — receiver-side linking cache *)
      mtable : int;          (** method-table index within the sub-unit *)
      env : wvalue list;
    }
  | Pfetch_req of {
      cls : Tyco_support.Netref.t;
      req_id : int;
      requester_site : int;
      requester_ip : int;
    }
  | Pfetch_rep of {
      req_id : int;
      dst_site : int;
      dst_ip : int;
      code : string;
      code_key : int * int * int;  (** (ip, site, group) *)
      group : int;           (** group index within the sub-unit *)
      index : int;           (** which class of the group was requested *)
      env_captures : wvalue list;  (** captured part of the shared env *)
    }
  | Pns_register of {
      site_name : string;
      id_name : string;
      nref : Tyco_support.Netref.t;
      rtti : string;
          (** encoded type descriptor; [""] when the exporter carries
              none (paper §7's dynamic checking) *)
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
      result : Tyco_support.Netref.t option;
      rtti : string;
    }
  | Prelease of {
      origin_site : int;  (** the exporter whose leases are refreshed *)
      origin_ip : int;
      chans : int list;   (** channel heap ids the sender still holds *)
      classes : int list; (** class heap ids the sender still holds *)
    }
      (** Lease refresh: an importer tells an exporter which of its
          references it still holds, renewing their leases so the
          exporter's reclamation sweep keeps them resident.  Versioned
          like [Fbatch]: the tag is followed by a format-version byte,
          so decoders predating the packet drop it cleanly
          ([Malformed "packet tag 7"]) and aware decoders reject future
          layout changes explicitly. *)

val prelease_version : int

val dst_ip : t -> ns_ip:int -> int
(** Destination node of a packet ([ns_ip] for name-service traffic). *)

val trace_pk : t -> Tyco_support.Trace.pk
(** The packet-kind tag trace [Send]/[Deliver] events carry. *)

val encode : Tyco_support.Wire.enc -> t -> unit
val decode : Tyco_support.Wire.dec -> t
val to_string : t -> string
val of_string : string -> t

val byte_size : t -> int
(** Serialized size, for the link cost models.  Deliberately excludes
    the trace-context trailer: tracing must not perturb the latency
    model it observes. *)

(** {1 Trace-context trailer}

    The causal span of a traced packet rides after the body as a
    versioned optional extension.  Compatibility holds both ways: a
    plain {!of_string} never reads past the body, and
    {!of_string_traced} on an untraced packet finds the decoder
    [at_end] and returns [None] — also on a trailer of a {e newer}
    version, which it skips rather than rejects. *)

val to_string_traced : ?ctx:Tyco_support.Trace.span -> t -> string
(** [to_string] plus a trailer when [ctx] is a real (non-null) span;
    without one the output is byte-identical to {!to_string}. *)

val encode_traced : ?ctx:Tyco_support.Trace.span -> Tyco_support.Wire.enc -> t -> unit
(** The encode-into form of {!to_string_traced}: body plus optional
    trailer appended to an existing encoder, for callers that reuse a
    buffer across packets (the TCP runner's transmit path). *)

val of_string_traced : string -> t * Tyco_support.Trace.span option

(** {1 Transport frames}

    How packets cross between nodes: a daemon sends the packets queued
    for one destination as an [Fbatch] frame stamped with its node
    address and the per-destination sequence number of the first
    packet.  Under at-least-once delivery the frame also carries a
    cumulative ack of the reverse stream; an unacknowledged frame is
    retransmitted, and the receiver recognizes replayed
    [(src_ip, seq)] pairs and suppresses the duplicate delivery, so
    every packet reaches its site exactly once even over a lossy,
    duplicating link.  When no reverse frame comes along to carry the
    ack, an [Fcum_ack] does. *)

type frame =
  | Fbatch of {
      src_ip : int;
      base_seq : int;
          (** sequence number of [payloads]' head; the rest follow
              contiguously, so packet [i] has seq [base_seq + i] *)
      ack_floor : int;
          (** piggybacked cumulative ack: the sender has contiguously
              received every seq below this from the frame's
              destination ([0] = nothing yet) *)
      payloads : t list;
    }
      (** N packets to one destination in one frame.  Versioned: the
          tag is followed by a format-version byte, so decoders predating
          the frame reject it cleanly ([Malformed "frame tag 2"]) and
          aware decoders reject future layout changes explicitly.  The
          unreliable transport sends [ack_floor = 0]. *)
  | Fcum_ack of { src_ip : int; ack_floor : int }
      (** standalone cumulative ack (delayed-ack timer fired with no
          reverse traffic to piggyback on): acknowledges every seq
          below [ack_floor] of [src_ip]'s inbound stream *)

val batch_version : int

val encode_frame : Tyco_support.Wire.enc -> frame -> unit
val decode_frame : Tyco_support.Wire.dec -> frame
val frame_to_string : frame -> string
val frame_of_string : string -> frame

val frame_byte_size : frame -> int

val batch_byte_size :
  src_ip:int -> base_seq:int -> ack_floor:int -> count:int ->
  payload_bytes:int -> int
(** {!frame_byte_size} of an [Fbatch] without materializing it:
    [payload_bytes] is the pre-summed {!byte_size} of the payloads.
    The simulated transport charges batch frames with this. *)

val pp_frame : Format.formatter -> frame -> unit

val pp : Format.formatter -> t -> unit
val pp_wvalue : Format.formatter -> wvalue -> unit
