(** Dynamic linking of byte-code into a site's program area.

    “The code is then dynamically linked to the local program and the
    reduction proceeds locally.” (paper §5)

    A {!area} is the growable program area of one site.  Linking a
    received sub-unit appends its blocks, method tables and groups and
    rewrites their internal indices by fixed offsets — possible because
    {!Bytecode.extract_mtable}/[extract_group] re-base sub-units
    densely. *)

type area

val create : unit -> area
val of_unit : Block.unit_ -> area * int
(** Load an initial program; returns the area and the entry block id. *)

val block : area -> int -> Block.block
val mtable : area -> int -> Block.mtable
val group : area -> int -> Block.group
val n_blocks : area -> int
val n_instrs : area -> int

(** {1 Method-label interning}

    Linking interns every method label occurring in a [Trmsg]
    instruction or a method-table entry to a dense area-local integer
    id, and gives each method table a direct-mapped id → entry-index
    array.  Method dispatch and parked-message matching then never
    compare strings.  Ids are local to one area and never travel on the
    wire — the receiver of shipped code re-interns under its own
    area. *)

val intern : area -> string -> int
(** Id of a label, interning it on first sight. *)

val label_name : area -> int -> string
(** Inverse of {!intern}. *)

val n_labels : area -> int

val method_entry : area -> int -> lid:int -> int
(** Index into [mt_entries] of method table [mt] for interned label
    [lid], or [-1] when the table has no such method.  O(1). *)

type offsets = { blk_off : int; mt_off : int; grp_off : int }

val link : area -> Block.unit_ -> offsets
(** Graft a sub-unit; old index [i] becomes [i + off] in the area. *)

val snapshot : area -> Block.unit_
(** The area as a unit (entry 0), for sub-unit extraction when code
    must be shipped.  Cached; invalidated by {!link}. *)
