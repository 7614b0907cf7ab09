module Ast = Tyco_syntax.Ast
module Block = Tyco_compiler.Block
module Instr = Tyco_compiler.Instr

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* Builtin operations.                                                 *)

let as_int = function Value.Vint n -> n | v -> err "expected int, got %s" (Value.type_name v)
let as_bool = function Value.Vbool b -> b | v -> err "expected bool, got %s" (Value.type_name v)

(* [Value.Vbool true] and [Value.Vbool false] are static constants, so
   no comparison allocates its result. *)
let[@inline] vbool b = if b then Value.Vbool true else Value.Vbool false

let value_eq a b =
  match (a, b) with
  | Value.Vint x, Value.Vint y -> Int.equal x y
  | Value.Vbool x, Value.Vbool y -> Bool.equal x y
  | Value.Vstr x, Value.Vstr y -> String.equal x y
  | Value.Vchan x, Value.Vchan y -> Value.same_chan x y
  | Value.Vnetref x, Value.Vnetref y -> Tyco_support.Netref.equal x y
  | _, _ -> a == b

let binop op a b =
  match op with
  | Ast.Add -> Value.Vint (as_int a + as_int b)
  | Ast.Sub -> Value.Vint (as_int a - as_int b)
  | Ast.Mul -> Value.Vint (as_int a * as_int b)
  | Ast.Div ->
      let d = as_int b in
      if d = 0 then err "division by zero" else Value.Vint (as_int a / d)
  | Ast.Mod ->
      let d = as_int b in
      if d = 0 then err "modulo by zero" else Value.Vint (as_int a mod d)
  | Ast.Lt -> vbool (as_int a < as_int b)
  | Ast.Le -> vbool (as_int a <= as_int b)
  | Ast.Gt -> vbool (as_int a > as_int b)
  | Ast.Ge -> vbool (as_int a >= as_int b)
  | Ast.Eq -> vbool (value_eq a b)
  | Ast.Neq -> vbool (not (value_eq a b))
  | Ast.And -> vbool (as_bool a && as_bool b)
  | Ast.Or -> vbool (as_bool a || as_bool b)

let unop op a =
  match op with
  | Ast.Neg -> Value.Vint (-as_int a)
  | Ast.Not -> vbool (not (as_bool a))

(* ------------------------------------------------------------------ *)
(* Fused ops.                                                          *)

type operand =
  | Slot of int
  | Const of Value.t
  | Fn of (Value.t array -> Value.t)

type op =
  | Exprs of { n : int; cost : int; vals : operand array }
  | Branch of { n : int; cost : int; cond : Value.t array -> bool; target : int }
  | Call of { n : int; cost : int; args : operand array; target : operand }
  | Send of {
      n : int;
      cost : int;
      lid : int;
      args : operand array;
      target : operand;
    }
  | Ins of { cost : int; ins : Instr.t }

let[@inline] get env = function
  | Slot i -> env.(i)
  | Const v -> v
  | Fn f -> f env

(* An expression as read off a run of byte-code. *)
type tree =
  | Leaf of operand
  | Bin of Ast.binop * tree * tree
  | Un of Ast.unop * tree

(* Each closure evaluates its left operand, then its right one, then
   applies the operator, as the byte-code does.  The int fast paths are
   written out per operator (a closure over [( + )] would be an
   indirect call); anything else goes to [binop], so ill-typed operands
   raise the byte-code's own errors. *)
let rec operand = function
  | Leaf o -> o
  | Un (op, a) ->
      let a = operand a in
      Fn (fun env -> unop op (get env a))
  | Bin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Neq) as op), a, b)
    ->
      let c = compare_fn op (operand a) (operand b) in
      Fn (fun env -> vbool (c env))
  | Bin (op, a, b) -> (
      let a = operand a and b = operand b in
      match op with
      | Ast.Add ->
          Fn
            (fun env ->
              let x = get env a in
              let y = get env b in
              match (x, y) with
              | Value.Vint x, Value.Vint y -> Value.Vint (x + y)
              | _ -> binop op x y)
      | Ast.Sub ->
          Fn
            (fun env ->
              let x = get env a in
              let y = get env b in
              match (x, y) with
              | Value.Vint x, Value.Vint y -> Value.Vint (x - y)
              | _ -> binop op x y)
      | _ ->
          Fn
            (fun env ->
              let x = get env a in
              let y = get env b in
              binop op x y))

and compare_fn op a b : Value.t array -> bool =
  match op with
  | Ast.Eq ->
      fun env ->
        let x = get env a in
        let y = get env b in
        (match (x, y) with
        | Value.Vint x, Value.Vint y -> x = y
        | _ -> value_eq x y)
  | Ast.Lt ->
      fun env ->
        let x = get env a in
        let y = get env b in
        (match (x, y) with
        | Value.Vint x, Value.Vint y -> x < y
        | _ -> as_bool (binop op x y))
  | _ ->
      fun env ->
        let x = get env a in
        let y = get env b in
        as_bool (binop op x y)

let cond_fn = function
  | Bin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Neq) as op), a, b)
    ->
      compare_fn op (operand a) (operand b)
  | tree ->
      let o = operand tree in
      fun env -> as_bool (get env o)

exception Unfollowable

(* A call fuses with its run, [stack] (top first), when the run holds
   exactly its [argc] arguments and, on top, a target that reads no
   expression. *)
let call_run stack argc =
  List.compare_length_with stack (argc + 1) = 0
  && match stack with Leaf (Slot _ | Const _) :: _ -> true | _ -> false

let call_operands = function
  | Leaf target :: args -> (Array.of_list (List.rev_map operand args), target)
  | _ -> assert false

let fused (code : Instr.t array) =
  let n = Array.length code in
  let is_target = Array.make (n + 1) false in
  Array.iter
    (function
      | Instr.Jump pc | Instr.Jump_if_false pc -> is_target.(pc) <- true
      | _ -> ())
    code;
  let op_at = Array.make (n + 1) 0 in
  let ops = ref [] and nops = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr nops
  in
  (* the current run: its trees (top of stack first), length and cost *)
  let stack = ref [] and run_n = ref 0 and run_cost = ref 0 in
  let reset () =
    stack := [];
    run_n := 0;
    run_cost := 0
  in
  let flush () =
    if not (List.is_empty !stack) then begin
      emit
        (Exprs
           { n = !run_n; cost = !run_cost;
             vals = Array.of_list (List.rev_map operand !stack) });
      reset ()
    end
  in
  let pop () =
    match !stack with
    | x :: rest ->
        stack := rest;
        x
    | [] -> raise Unfollowable
  in
  Array.iteri
    (fun pc ins ->
      (* a jump target starts an op; a run that reads across it pops
         from an empty stack below *)
      if is_target.(pc) then flush ();
      if List.is_empty !stack then op_at.(pc) <- !nops;
      let cost = Instr.cost ins in
      let push tree =
        stack := tree :: !stack;
        incr run_n;
        run_cost := !run_cost + cost
      in
      match ins with
      | Instr.Push_int k -> push (Leaf (Const (Value.Vint k)))
      | Instr.Push_bool b -> push (Leaf (Const (vbool b)))
      | Instr.Push_str s -> push (Leaf (Const (Value.Vstr s)))
      | Instr.Load i -> push (Leaf (Slot i))
      | Instr.Binop op ->
          let b = pop () in
          let a = pop () in
          push (Bin (op, a, b))
      | Instr.Unop op -> push (Un (op, pop ()))
      | Instr.Jump_if_false target when List.compare_length_with !stack 1 = 0
        ->
          emit
            (Branch
               { n = !run_n + 1; cost = !run_cost + cost;
                 cond = cond_fn (List.hd !stack); target });
          reset ()
      | Instr.Instof argc when call_run !stack argc ->
          let args, target = call_operands !stack in
          emit
            (Call { n = !run_n + 1; cost = !run_cost + cost; args; target });
          reset ()
      | Instr.Trmsg { lid; argc; _ } when call_run !stack argc ->
          let args, target = call_operands !stack in
          emit
            (Send { n = !run_n + 1; cost = !run_cost + cost; lid; args; target });
          reset ()
      | _ ->
          flush ();
          emit (Ins { cost; ins }))
    code;
  flush ();
  op_at.(n) <- !nops;
  List.rev_map
    (function
      | Branch b -> Branch { b with target = op_at.(b.target) }
      | Ins { cost; ins = Instr.Jump pc } ->
          Ins { cost; ins = Instr.Jump op_at.(pc) }
      | Ins { cost; ins = Instr.Jump_if_false pc } ->
          Ins { cost; ins = Instr.Jump_if_false op_at.(pc) }
      | op -> op)
    !ops
  |> Array.of_list

let block (blk : Block.block) =
  let code = blk.Block.blk_code in
  let n = Array.length code in
  Array.iter
    (function
      | Instr.Jump pc | Instr.Jump_if_false pc ->
          if pc < 0 || pc > n then
            err "block '%s': jump target %d out of range" blk.Block.blk_name pc
      | _ -> ())
    code;
  try fused code
  with Unfollowable -> Array.map (fun ins -> Ins { cost = Instr.cost ins; ins }) code
