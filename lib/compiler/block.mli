(** Byte-code blocks and program units.

    “The nested structure of the source program is preserved in the
    final byte-code.  This allows the efficient dynamic selection of
    byte-code blocks that have to be moved between sites.” (paper §5)

    A compiled program is a {!unit_}: a table of {!block}s (straight-line
    instruction sequences with a frame of [nslots] slots), a table of
    method tables ({!mtable}, one per source object), and a table of
    definition groups ({!group}, one per [def]).  Blocks reference
    method tables and groups by index; {!code_closure} computes the
    transitive set needed to ship one object or class, and {!Link}
    grafts such a sub-unit into another site's program area. *)

(** One method of an object: label, body block, parameter count.  The
    body block's frame layout is [params..][captured..][locals..]. *)
type mentry = { me_label : string; me_block : int; me_nparams : int }

(** A method table: the compiled form of [x?{...}].  [mt_captures] are
    the creating frame's slots captured into the closure environment
    shared by all methods. *)
type mtable = { mt_id : int; mt_captures : int array; mt_entries : mentry array }

type class_sig = { cls_name : string; cls_block : int; cls_nparams : int }

(** A definition group: the compiled form of [def X1.. and Xk..].
    [grp_captures] are the creating frame's captured slots; the shared
    closure environment is [captured..][class values of the group..],
    enabling mutual recursion.  [grp_slots.(i)] is the creating frame's
    slot that receives class [i]'s closure value. *)
type group = {
  grp_id : int;
  grp_captures : int array;
  grp_classes : class_sig array;
  grp_slots : int array;
}

type block = {
  blk_id : int;
  blk_name : string;
  blk_nparams : int;
  blk_nslots : int;
  blk_code : Instr.t array;
}

type unit_ = {
  blocks : block array;
  mtables : mtable array;
  groups : group array;
  entry : int;  (** block id of the program body; slot 0 holds [io] *)
}

val max_slots : int
(** Bound on a block's frame, [blk_nslots]: 65536 slots.  The compiler
    refuses a block that needs more, and the decoder a unit that claims
    more, since every spawn of a block allocates its whole frame. *)

val instr_count : unit_ -> int
val pp : Format.formatter -> unit_ -> unit

(** {1 Shipping support} *)

type subset = { sub_blocks : int list; sub_mtables : int list; sub_groups : int list }

val closure_of_mtable : unit_ -> int -> subset
(** Transitive code needed to ship the object closure of a method
    table. *)

val closure_of_group : unit_ -> int -> subset
(** Transitive code needed to ship a definition group (FETCH reply). *)
