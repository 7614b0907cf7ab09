(** Hardware-independent binary wire format.

    The paper (§5) requires that network references, shipped
    messages/objects and downloaded byte-code have a representation that
    is independent of the host: this module is that representation.
    Integers use LEB128 varints (signed values are zigzag-encoded),
    floats are IEEE-754 bits in little-endian order, and strings are
    length-prefixed. *)

(** {1 Encoding} *)

type enc

val encoder : ?size:int -> unit -> enc
(** A fresh encoder; [size] preallocates the backing buffer (the buffer
    still grows on demand, so [size] is a hint, not a cap). *)

val to_string : enc -> string
val size : enc -> int

val reset : enc -> unit
(** Rewind to empty, keeping the grown backing buffer for reuse. *)

val blit_to_bytes : enc -> Bytes.t -> int -> unit
(** Copy the encoded bytes into [dst] at [pos]; [dst] must have room
    for {!size} bytes. *)

val with_encoder : ?size:int -> (enc -> unit) -> string
(** Borrow an encoder from a small process-wide pool, run the writer,
    and return the encoded string.  Steady-state encodes reuse grown
    buffers, so the only allocation is the result string itself. *)

val u8 : enc -> int -> unit
(** Raw byte; [0 <= v < 256]. *)

val varint : enc -> int -> unit
(** Unsigned LEB128.  Raises [Invalid_argument] on negative input. *)

val zint : enc -> int -> unit
(** Signed integer, zigzag + LEB128. *)

val varint_size : int -> int
(** Bytes {!varint} would emit, without encoding. *)

val zint_size : int -> int
(** Bytes {!zint} would emit, without encoding. *)

val string_size : string -> int
(** Bytes {!string} would emit (length prefix + payload). *)

val bool : enc -> bool -> unit
val float : enc -> float -> unit
val string : enc -> string -> unit
val list : enc -> (enc -> 'a -> unit) -> 'a list -> unit
val option : enc -> (enc -> 'a -> unit) -> 'a option -> unit
val pair : enc -> (enc -> 'a -> unit) -> (enc -> 'b -> unit) -> 'a * 'b -> unit

(** {1 Decoding} *)

type dec

exception Malformed of string
(** Raised by all readers on truncated or invalid input.  Dynamic
    checking of incoming packets (paper §7) turns this into a
    protocol-error diagnostic rather than a crash. *)

val decoder : string -> dec

val remaining : dec -> int
(** Bytes not yet consumed. *)

val at_end : dec -> bool
val read_u8 : dec -> int
val read_varint : dec -> int
val read_zint : dec -> int
val read_bool : dec -> bool
val read_float : dec -> float
val read_string : dec -> string
val read_count : dec -> int
(** A table length: a varint at least 0 and at most the bytes left
    (every entry takes at least one byte); raises {!Malformed}
    otherwise, so a corrupt count never reaches [Array.init]. *)

val read_list : dec -> (dec -> 'a) -> 'a list
val read_option : dec -> (dec -> 'a) -> 'a option
val read_pair : dec -> (dec -> 'a) -> (dec -> 'b) -> 'a * 'b
