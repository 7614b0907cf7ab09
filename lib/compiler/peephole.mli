(** Peephole optimization of byte-code blocks.

    Local rewrites applied per block, preserving semantics exactly:

    - constant folding of builtin expressions
      ([pushi a; pushi b; add] → [pushi (a+b)], likewise for the other
      arithmetic, comparison and boolean operators — except division
      and modulo by a zero constant, which must keep their run-time
      error);
    - branch simplification ([pushb true; jmpf _] disappears,
      [pushb false; jmpf t] becomes [jmp t]);
    - jump threading (a jump to a jump retargets to the final
      destination) and removal of jumps to the next instruction;
    - dead-store elimination of [load i; store i] pairs.

    Jump targets are rewritten consistently when instructions are
    removed.  The ablation experiment E11 measures the effect on code
    size and execution speed. *)

val block : Block.block -> Block.block
val unit_ : Block.unit_ -> Block.unit_
