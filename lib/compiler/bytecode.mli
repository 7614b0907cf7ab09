(** Binary serialization of byte-code units — the hardware-independent
    representation shipped between sites (paper §5) and the measurand
    of the compactness experiment E2.

    [extract_mtable]/[extract_group] cut the transitive sub-unit needed
    to move one object closure or one definition group; indices are
    re-based densely so the receiving site can graft the sub-unit with
    simple offsets ({!Link}). *)

val encode_unit : Tyco_support.Wire.enc -> Block.unit_ -> unit
val decode_unit : Tyco_support.Wire.dec -> Block.unit_
(** Raises {!Tyco_support.Wire.Malformed} on corrupt input, including
    out-of-range block/mtable/group references, a block claiming more
    than {!Block.max_slots} frame slots or more parameters than slots,
    frame slots at or past a block's slot count, and jumps that do not
    go forward within their block (part of the dynamic checking of
    incoming code). *)

val unit_to_string : Block.unit_ -> string
val unit_of_string : string -> Block.unit_

val byte_size : Block.unit_ -> int
(** Size of the serialized form in bytes. *)

val extract_mtable : Block.unit_ -> int -> Block.unit_ * int
(** [(sub_unit, mt')] where [mt'] is the method table's index within
    the sub-unit. *)

val extract_group : Block.unit_ -> int -> Block.unit_ * int
