module Ast = Tyco_syntax.Ast

(* Evaluate a binary operator over literal operands when safe. *)
let fold_binop op a b : Instr.t option =
  let module I = Instr in
  match (op, a, b) with
  | Ast.Add, I.Push_int x, I.Push_int y -> Some (I.Push_int (x + y))
  | Ast.Sub, I.Push_int x, I.Push_int y -> Some (I.Push_int (x - y))
  | Ast.Mul, I.Push_int x, I.Push_int y -> Some (I.Push_int (x * y))
  | Ast.Div, I.Push_int x, I.Push_int y when y <> 0 -> Some (I.Push_int (x / y))
  | Ast.Mod, I.Push_int x, I.Push_int y when y <> 0 ->
      Some (I.Push_int (x mod y))
  | Ast.Lt, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x < y))
  | Ast.Le, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x <= y))
  | Ast.Gt, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x > y))
  | Ast.Ge, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x >= y))
  | Ast.Eq, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x = y))
  | Ast.Neq, I.Push_int x, I.Push_int y -> Some (I.Push_bool (x <> y))
  | Ast.Eq, I.Push_bool x, I.Push_bool y -> Some (I.Push_bool (x = y))
  | Ast.Neq, I.Push_bool x, I.Push_bool y -> Some (I.Push_bool (x <> y))
  | Ast.Eq, I.Push_str x, I.Push_str y -> Some (I.Push_bool (String.equal x y))
  | Ast.And, I.Push_bool x, I.Push_bool y -> Some (I.Push_bool (x && y))
  | Ast.Or, I.Push_bool x, I.Push_bool y -> Some (I.Push_bool (x || y))
  | _ -> None

let fold_unop op a : Instr.t option =
  let module I = Instr in
  match (op, a) with
  | Ast.Neg, I.Push_int x -> Some (I.Push_int (-x))
  | Ast.Not, I.Push_bool x -> Some (I.Push_bool (not x))
  | _ -> None

(* One rewriting pass over a code list annotated with original
   positions.  Returns the rewritten list; every kept element remembers
   the original position range it covers so jumps can be remapped. *)
let rewrite_pass code =
  (* code : (orig_pos * instr) list *)
  let rec go acc = function
    | [] -> List.rev acc
    | (_, a) :: (_, Instr.Binop op) :: rest
      when Option.is_some
             (match acc with
             | (_, b) :: _ -> fold_binop op b a
             | [] -> None) -> (
        (* stack shape: [.. b a] with b from acc head *)
        match acc with
        | (pb, b) :: acc' ->
            let folded = Option.get (fold_binop op b a) in
            go ((pb, folded) :: acc') rest
        | [] -> assert false)
    | (p, a) :: (_, Instr.Unop op) :: rest
      when Option.is_some (fold_unop op a) ->
        go ((p, Option.get (fold_unop op a)) :: acc) rest
    | (_, Instr.Push_bool true) :: (_, Instr.Jump_if_false _) :: rest ->
        go acc rest
    | (p, Instr.Push_bool false) :: (_, Instr.Jump_if_false t) :: rest ->
        go ((p, Instr.Jump t) :: acc) rest
    | (_, Instr.Load i) :: (_, Instr.Store j) :: rest when i = j ->
        go acc rest
    | (p, ins) :: rest -> go ((p, ins) :: acc) rest
  in
  go [] code

let block (b : Block.block) : Block.block =
  let n = Array.length b.Block.blk_code in
  if n = 0 then b
  else begin
    let annotated =
      List.init n (fun i -> (i, b.Block.blk_code.(i)))
    in
    (* to fixpoint: one pass folds left-nested expressions fully, but
       right-nested ones need another round *)
    let rec fix lst rounds =
      if rounds = 0 then lst
      else
        let lst' = rewrite_pass lst in
        if List.length lst' = List.length lst && lst' = lst then lst
        else fix lst' (rounds - 1)
    in
    let rewritten = fix annotated 10 in
    (* position map: original index -> new index of the first kept
       instruction at or after it *)
    let new_index = Array.make (n + 1) (List.length rewritten) in
    List.iteri
      (fun new_i (orig, _) ->
        (* everything from the previous kept original up to [orig]
           maps here *)
        for k = orig downto 0 do
          if new_index.(k) > new_i then new_index.(k) <- new_i
        done)
      rewritten;
    (* (the loop above is O(n^2) worst case but blocks are tiny) *)
    let remap t = if t >= n then List.length rewritten else new_index.(t) in
    let code =
      Array.of_list
        (List.map
           (fun (_, ins) ->
             match ins with
             | Instr.Jump t -> Instr.Jump (remap t)
             | Instr.Jump_if_false t -> Instr.Jump_if_false (remap t)
             | other -> other)
           rewritten)
    in
    (* jump threading: a jump landing on another jump retargets *)
    let rec final_target t depth =
      if depth > Array.length code then t
      else if t < Array.length code then
        match code.(t) with
        | Instr.Jump t' -> final_target t' (depth + 1)
        | _ -> t
      else t
    in
    Array.iteri
      (fun i ins ->
        match ins with
        | Instr.Jump t ->
            let t' = final_target t 0 in
            if t' = i + 1 then code.(i) <- Instr.Jump (i + 1)
            else code.(i) <- Instr.Jump t'
        | Instr.Jump_if_false t ->
            code.(i) <- Instr.Jump_if_false (final_target t 0)
        | _ -> ())
      code;
    { b with Block.blk_code = code }
  end

let unit_ (u : Block.unit_) : Block.unit_ =
  { u with Block.blocks = Array.map block u.Block.blocks }
