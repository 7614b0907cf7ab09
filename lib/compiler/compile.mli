(** Code generation: surface programs to byte-code units.

    Compilation follows the paper's pipeline — “programs are compiled
    into an intermediate virtual machine assembly.  This in turn is
    compiled into hardware independent byte-code” — collapsed into one
    pass here (the assembly is observable via {!Disasm}).

    Conventions:
    - each source object becomes a method table whose methods are
      blocks with frame layout [params..][captured..][locals..];
    - each [def] becomes a definition group whose classes share one
      closure environment [captured..][group class values..], giving
      mutual recursion by in-place patching;
    - parallel composition compiles to sequential emission inside one
      thread (spawning happens only at communication and
      instantiation, which matches the TyCO machine and keeps threads
      at the granularity the paper reports);
    - [import] compiles to a suspension: the continuation becomes its
      own block, spawned when the name service reply arrives;
    - the entry block has one parameter: slot 0 receives the site's
      [io] port. *)

exception Error of string

val compile_proc : ?optimize:bool -> Tyco_syntax.Ast.proc -> Block.unit_
(** Compile one site body.  Desugars first; raises {!Error} on unbound
    identifiers (run the type-checker first for source-located
    diagnostics) and on a block whose frame would need more than
    {!Block.max_slots} slots.  [optimize] (default [true]) runs the {!Peephole}
    pass on every block. *)

val compile_program :
  ?optimize:bool -> Tyco_syntax.Ast.program -> (string * Block.unit_) list
(** Compile every site of a network program. *)
