(** The instruction set of the extended TyCO virtual machine (paper §5).

    The machine is a hybrid: an operand stack evaluates builtin
    expressions (“a stack for evaluating builtin expressions”), while
    frame slots hold the bindings of local variables (“a local variable
    table”).  The communication instructions [trmsg]/[trobj], the
    instantiation instruction [instof] and the distribution
    instructions [export]/[import] follow the paper's names; their
    remote cases are surfaced to the embedding site as pending remote
    operations rather than executed in-line (the site serializes and
    forwards them through its TyCOd daemon).

    Code offsets in [Jump]/[Jump_if_false] are absolute within the
    enclosing block. *)

type t =
  (* operand stack *)
  | Push_int of int
  | Push_bool of bool
  | Push_str of string
  | Load of int           (** push frame slot *)
  | Store of int          (** pop into frame slot *)
  | Binop of Tyco_syntax.Ast.binop
  | Unop of Tyco_syntax.Ast.unop
  (* control *)
  | Jump of int
  | Jump_if_false of int
  (* processes *)
  | New_chan of int       (** fresh channel into slot *)
  | Trmsg of { label : string; lid : int; argc : int }
      (** stack: args..., target on top.  [lid] is the area-local
          interned id of [label], assigned by {!Link.link}; [-1] until
          the instruction is linked.  It never travels on the wire. *)
  | Trobj of int          (** method-table index; stack: target on top *)
  | Defgroup of int       (** definition-group index *)
  | Instof of int         (** argc; stack: args..., class value on top *)
  (* distribution (paper §5: new virtual machine instructions) *)
  | Export_name of string     (** pop channel; register with name service *)
  | Export_class of string * int
      (** class slot; register exported class with name service *)
  | Import_name of { site : string; name : string; cont : int; captures : int array }
      (** ask the name service for [site.name]; when the reply arrives,
          spawn block [cont] with env = reply value :: captured slots.
          Ends the current thread (the paper overlaps the wait by
          context-switching). *)
  | Import_class of { site : string; name : string; cont : int; captures : int array }

val pp : Format.formatter -> t -> unit
(** One line of the textual assembly, in the syntax {!Asm.parse}
    reads back: the one instruction printer, used by the assembly
    ({!Asm.print}, [tycoc --emit-asm]) and by the indexed listing
    ({!Block.pp}, [tycoc -d]). *)

val cost : t -> int
(** Abstract execution cost in virtual-time units (≈ns on the paper's
    hardware); drives the discrete-event simulation clock. *)
