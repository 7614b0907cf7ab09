(** Fusing a byte-code block into the ops {!Machine} runs.

    The byte-code is a stack machine: [load 0; pushi 1; sub] pushes two
    values and pops them again to push the difference.  The first time
    a block runs, each maximal run of expression instructions
    ([Push_*], [Load], [Binop], [Unop]) becomes one {!Exprs} op that
    computes the values the run leaves on the operand stack straight
    from the frame, with its constants boxed once; a [Jump_if_false]
    on such a run's single value becomes one {!Branch}; an [instof] or
    a [trmsg] that consumes the whole run, the target on top being a
    frame slot or a constant, becomes one {!Call} or {!Send}; every
    other instruction stays one {!Ins}.

    Each op carries the number of byte-code instructions it covers and
    the sum of their {!Tyco_compiler.Instr.cost}, so instruction counts,
    thread lengths and virtual time are those of stepping the byte-code
    one instruction at a time.  Fused operands are evaluated in
    instruction order and ill-typed ones raise the byte-code's own
    {!Error}s.

    A block whose stack shape the fuser cannot follow — an expression
    that pops a value pushed before its run, which is also what a jump
    into the middle of an expression amounts to — becomes one {!Ins}
    per instruction: the byte-code stepped as is, with the same
    errors. *)

exception Error of string
(** Re-exported as {!Machine.Error}. *)

val err : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Builtin operations} *)

val as_bool : Value.t -> bool
val vbool : bool -> Value.t
(** The two shared boolean values: no comparison allocates. *)

val binop : Tyco_syntax.Ast.binop -> Value.t -> Value.t -> Value.t
val unop : Tyco_syntax.Ast.unop -> Value.t -> Value.t

(** {1 Fused ops} *)

(** A value an {!Exprs} op pushes, or a {!Call} or {!Send} passes: a
    frame slot, a constant, or a fused expression over the frame. *)
type operand =
  | Slot of int
  | Const of Value.t
  | Fn of (Value.t array -> Value.t)

type op =
  | Exprs of { n : int; cost : int; vals : operand array }
      (** Push [vals], in order. *)
  | Branch of { n : int; cost : int; cond : Value.t array -> bool; target : int }
      (** Go on when [cond] holds, else to op [target]. *)
  | Call of { n : int; cost : int; args : operand array; target : operand }
      (** [instof (Array.length args)] on the values [args] and, on
          top, [target]. *)
  | Send of {
      n : int;
      cost : int;
      lid : int;
      args : operand array;
      target : operand;
    }
      (** [trmsg] of interned label [lid] with the values [args] to
          [target]. *)
  | Ins of { cost : int; ins : Tyco_compiler.Instr.t }
      (** One instruction ([n = 1]) on the operand stack; its jump
          targets are op indices. *)

val block : Tyco_compiler.Block.block -> op array
(** The fused ops of a block.  Raises {!Error} if a jump target lies
    outside the block (decoded units cannot carry one). *)
