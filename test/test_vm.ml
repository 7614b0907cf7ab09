(* Virtual machine tests: channel rendez-vous semantics, builtins,
   dynamic errors, closures and mutual recursion, remote-operation
   surfacing, and metrics. *)

open Tyco_vm
module Parser = Tyco_syntax.Parser
module Compile = Tyco_compiler.Compile
module Link = Tyco_compiler.Link
module Netref = Tyco_support.Netref
module Stats = Tyco_support.Stats

let check = Alcotest.check

(* Run a single-site program and collect io events. *)
let run_vm ?(budget = 1_000_000) src =
  let unit_ = Compile.compile_proc (Parser.parse_proc src) in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun label args ->
        outs := (label, args) :: !outs)
  in
  Machine.spawn_entry vm ~entry ~io;
  let _instrs, _cost = Machine.run vm ~budget in
  (vm, List.rev !outs)

let out_testable =
  let pp ppf (l, args) =
    Fmt.pf ppf "%s[%a]" l (Fmt.list ~sep:Fmt.comma Value.pp) args
  in
  Alcotest.testable pp (fun (l1, a1) (l2, a2) ->
      l1 = l2
      && List.length a1 = List.length a2
      && List.for_all2
           (fun x y ->
             match (x, y) with
             | Value.Vint a, Value.Vint b -> a = b
             | Value.Vbool a, Value.Vbool b -> a = b
             | Value.Vstr a, Value.Vstr b -> a = b
             | _ -> false)
           a1 a2)

let ints label xs = List.map (fun n -> (label, [ Value.Vint n ])) xs

(* ------------------------------------------------------------------ *)
(* Rendez-vous semantics                                                *)

let msg_then_obj () =
  let _, outs = run_vm "new x (x![5] | x?(v) = io!printi[v])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 5 ]) outs

let obj_then_msg () =
  let _, outs = run_vm "new x ((x?(v) = io!printi[v]) | x![6])" in
  check (Alcotest.list out_testable) "fires" (ints "printi" [ 6 ]) outs

let fifo_messages () =
  let _, outs =
    run_vm
      "new x (x![1] | x![2] | x![3] | x?(v) = io!printi[v] | x?(v) = io!printi[v] | x?(v) = io!printi[v])"
  in
  check (Alcotest.list out_testable) "fifo" (ints "printi" [ 1; 2; 3 ]) outs

let fifo_objects () =
  let _, outs =
    run_vm
      {| new x ((x?(v) = io!printi[v * 10]) | (x?(v) = io!printi[v * 100])
         | x![1] | x![1]) |}
  in
  check (Alcotest.list out_testable) "object order" (ints "printi" [ 10; 100 ]) outs

let label_dispatch () =
  let _, outs =
    run_vm
      {| new x (x?{ inc(v, k) = k![v + 1], dec(v, k) = k![v - 1] }
         | new k (x!dec[10, k] | k?(r) = io!printi[r])) |}
  in
  check (Alcotest.list out_testable) "dec selected" (ints "printi" [ 9 ]) outs

let unmatched_message_parks () =
  let vm, outs = run_vm "new x x![1]" in
  check (Alcotest.list out_testable) "no output" [] outs;
  check Alcotest.bool "not runnable" false (Machine.runnable vm);
  let parked =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "msgs_parked")
  in
  check Alcotest.int "parked" 1 parked

(* ------------------------------------------------------------------ *)
(* Closures                                                            *)

let closure_captures_environment () =
  let _, outs =
    run_vm
      {| new x, y (y![7] | (x?(v) = y?(w) = io!printi[v + w]) | x![35]) |}
  in
  check (Alcotest.list out_testable) "captured v" (ints "printi" [ 42 ]) outs

let class_env_mutual_recursion () =
  let _, outs =
    run_vm
      {| new base (base![3] |
         def Even(n) = if n == 0 then (base?(b) = io!printi[b]) else Odd[n - 1]
         and Odd(n) = Even[n - 1]
         in Even[8]) |}
  in
  check (Alcotest.list out_testable) "group shares env" (ints "printi" [ 3 ]) outs

let nested_defs () =
  let _, outs =
    run_vm
      {| def Outer(k) = (def Inner(v) = k![v * 2] in Inner[21])
         in new k (Outer[k] | k?(v) = io!printi[v]) |}
  in
  check (Alcotest.list out_testable) "nested groups" (ints "printi" [ 42 ]) outs

(* ------------------------------------------------------------------ *)
(* Expressions and control                                             *)

let expression_ops () =
  let _, outs =
    run_vm
      {| io!printi[2 * 3 + 10 / 2 - 7 % 4]
       | io!printb[1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3]
       | io!printb[not (1 == 2) && (1 != 2 || false)]
       | io!printi[-5] |}
  in
  check Alcotest.int "four outputs" 4 (List.length outs);
  check (Alcotest.list out_testable) "values"
    [ ("printi", [ Value.Vint 8 ]);
      ("printb", [ Value.Vbool true ]);
      ("printb", [ Value.Vbool true ]);
      ("printi", [ Value.Vint (-5) ]) ]
    outs

let if_branches () =
  let _, outs =
    run_vm
      {| if 1 < 2 then io!printi[1] else io!printi[2]
       | if false then io!printi[3] else io!printi[4] |}
  in
  check (Alcotest.list out_testable) "branches" (ints "printi" [ 1; 4 ]) outs

let string_values () =
  let _, outs = run_vm {| io!print["hello"] |} in
  check (Alcotest.list out_testable) "string"
    [ ("print", [ Value.Vstr "hello" ]) ]
    outs

(* ------------------------------------------------------------------ *)
(* Dynamic errors                                                      *)

let vm_errors () =
  let fails src =
    match run_vm src with exception Machine.Error _ -> true | _ -> false
  in
  check Alcotest.bool "div zero" true (fails "io!printi[1 / 0]");
  check Alcotest.bool "mod zero" true (fails "io!printi[1 % 0]");
  check Alcotest.bool "no such method" true
    (fails "new x (x?{ a() = nil } | x!b[])");
  check Alcotest.bool "arity" true (fails "new x (x?{ a(u) = nil } | x!a[])");
  check Alcotest.bool "object at builtin" true (fails "io?(v) = nil");
  (* type errors inside the expressions of untyped programs, message
     and all *)
  let error src =
    match run_vm src with
    | exception Machine.Error m -> m
    | _ -> "no error"
  in
  check Alcotest.string "int op on a bool" "expected int, got bool"
    (error "io!printi[1 + true]");
  check Alcotest.string "not of an int" "expected bool, got int"
    (error "io!printb[not 3]");
  check Alcotest.string "negated bool" "expected int, got bool"
    (error "io!printi[-true]");
  check Alcotest.string "int condition" "expected bool, got int"
    (error "if 2 then nil else nil");
  check Alcotest.string "bool compared to int" "expected int, got bool"
    (error "if 1 < false then nil else nil");
  let _, outs = run_vm "io!printb[1 == true]" in
  check (Alcotest.list out_testable) "mixed equality is false"
    [ ("printb", [ Value.Vbool false ]) ]
    outs

(* Hand-written blocks the fuser cannot follow (an expression popping a
   value pushed before a [newc], a [binop] on an empty stack) or can
   only follow by splitting at a jump target run as the byte-code
   would: same output, same instruction count and cost, same error. *)
let run_asm text =
  let area, entry = Link.of_unit (Tyco_compiler.Asm.parse text) in
  let vm = Machine.create area in
  let outs = ref [] in
  let io =
    Machine.builtin_chan vm "io" (fun label args ->
        outs := (label, args) :: !outs)
  in
  Machine.spawn_entry vm ~entry ~io;
  let counts = Machine.run vm ~budget:1000 in
  (counts, List.rev !outs)

let fuser_fallback () =
  let unit_of body =
    Printf.sprintf "unit entry=b0\nblock b0 \"entry\" params=1 slots=2 {\n%s\n}\n"
      body
  in
  (* pushi 1 is flushed at newc; add then needs it back *)
  let counts, outs =
    run_asm
      (unit_of "pushi 1\nnewc 1\npushi 2\nadd\nload 0\ntrmsg printi/1")
  in
  check (Alcotest.list out_testable) "across newc" (ints "printi" [ 3 ]) outs;
  check Alcotest.(pair int int) "counts and cost" (6, 1 + 6 + 1 + 2 + 1 + 12)
    counts;
  (* a jump into the middle of a run: 5 stays on the stack *)
  let counts, outs =
    run_asm
      (unit_of
         "pushb true\njmpf 3\npushi 5\npushi 7\nload 0\ntrmsg printi/1")
  in
  check (Alcotest.list out_testable) "jump into a run" (ints "printi" [ 7 ])
    outs;
  check Alcotest.(pair int int) "counts and cost through the jump"
    (6, 1 + 1 + 1 + 1 + 1 + 12) counts;
  check Alcotest.string "underflow" "operand stack underflow"
    (match run_asm (unit_of "add") with
    | exception Machine.Error m -> m
    | _ -> "no error")

(* ------------------------------------------------------------------ *)
(* Fused expressions against OCaml                                     *)

(* Well-typed int and bool expression trees over the parameters of
   [def F(a, b, p)]: [a] and [b] ints in slots 0 and 1, [p] a bool in
   slot 2. *)
type ex =
  | Int of int
  | Bool of bool
  | Param of string
  | Bin of Tyco_syntax.Ast.binop * ex * ex
  | Neg of ex
  | Not of ex

module Ast = Tyco_syntax.Ast

let rec source = function
  | Int n when n < 0 -> Printf.sprintf "(-%d)" (-n)
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Param x -> x
  | Bin (op, x, y) ->
      let sym =
        match op with
        | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
        | Ast.Mod -> "%" | Ast.Eq -> "==" | Ast.Neq -> "!=" | Ast.Lt -> "<"
        | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">=" | Ast.And -> "&&"
        | Ast.Or -> "||"
      in
      Printf.sprintf "(%s %s %s)" (source x) sym (source y)
  | Neg x -> Printf.sprintf "(-%s)" (source x)
  | Not x -> Printf.sprintf "(not %s)" (source x)

exception Div_by_zero

(* Strict, like the byte-code: both operands of [&&]/[||] are computed. *)
let rec eval env = function
  | Int n -> `I n
  | Bool b -> `B b
  | Param x -> List.assoc x env
  | Neg x -> `I (-int env x)
  | Not x -> `B (not (bool env x))
  | Bin (op, x, y) -> (
      let vx = eval env x in
      let vy = eval env y in
      let i = function `I n -> n | `B _ -> assert false in
      let b = function `B v -> v | `I _ -> assert false in
      match op with
      | Ast.Add -> `I (i vx + i vy)
      | Ast.Sub -> `I (i vx - i vy)
      | Ast.Mul -> `I (i vx * i vy)
      | Ast.Div -> if i vy = 0 then raise Div_by_zero else `I (i vx / i vy)
      | Ast.Mod -> if i vy = 0 then raise Div_by_zero else `I (i vx mod i vy)
      | Ast.Lt -> `B (i vx < i vy)
      | Ast.Le -> `B (i vx <= i vy)
      | Ast.Gt -> `B (i vx > i vy)
      | Ast.Ge -> `B (i vx >= i vy)
      | Ast.Eq -> `B (vx = vy)
      | Ast.Neq -> `B (vx <> vy)
      | Ast.And -> `B (b vx && b vy)
      | Ast.Or -> `B (b vx || b vy))

and int env x = match eval env x with `I n -> n | `B _ -> assert false
and bool env x = match eval env x with `B v -> v | `I _ -> assert false

let gen_int_literal =
  QCheck2.Gen.(
    oneof
      [ int_range (-20) 20; map (fun n -> max n (-max_int)) int;
        pure max_int; pure (-max_int);
        pure 0; pure 1; pure (-1) ])

let gen_tree =
  let open QCheck2.Gen in
  let rec int_ex n =
    if n = 0 then
      oneof [ map (fun k -> Int k) gen_int_literal; oneofl [ Param "a"; Param "b" ] ]
    else
      frequency
        [ (2, int_ex 0);
          ( 4,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ])
              (int_ex (n / 2)) (int_ex (n / 2)) );
          (1, map (fun x -> Neg x) (int_ex (n - 1))) ]
  and bool_ex n =
    if n = 0 then oneof [ map (fun b -> Bool b) bool; pure (Param "p") ]
    else
      frequency
        [ (1, bool_ex 0);
          ( 3,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Neq ])
              (int_ex (n / 2)) (int_ex (n / 2)) );
          ( 2,
            map3
              (fun op x y -> Bin (op, x, y))
              (oneofl [ Ast.And; Ast.Or; Ast.Eq; Ast.Neq ])
              (bool_ex (n / 2)) (bool_ex (n / 2)) );
          (1, map (fun x -> Not x) (bool_ex (n - 1))) ]
  in
  sized_size (int_range 0 8) (fun n ->
      oneof
        [ map (fun e -> (`Int, e)) (int_ex n);
          map (fun e -> (`Bool, e)) (bool_ex n) ])

let fused_expressions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fused expressions compute what OCaml does"
       ~count:500
       ~print:(fun ((_, e), a, b, p) ->
         Printf.sprintf "%s with a=%d b=%d p=%b" (source e) a b p)
       QCheck2.Gen.(quad gen_tree gen_int_literal gen_int_literal bool)
       (fun ((ty, e), a, b, p) ->
         let label = match ty with `Int -> "printi" | `Bool -> "printb" in
         let src =
           Printf.sprintf "def F(a, b, p) = io!%s[%s] in F[%s, %s, %b]" label
             (source e) (source (Int a)) (source (Int b)) p
         in
         let unit_ = Compile.compile_proc (Parser.parse_proc src) in
         let area, entry = Link.of_unit unit_ in
         let vm = Machine.create area in
         let outs = ref [] in
         let io =
           Machine.builtin_chan vm "io" (fun l args -> outs := (l, args) :: !outs)
         in
         Machine.spawn_entry vm ~entry ~io;
         let expected =
           try Some (eval [ ("a", `I a); ("b", `I b); ("p", `B p) ] e)
           with Div_by_zero -> None
         in
         match (Machine.run vm ~budget:1_000_000, expected) with
         | exception Machine.Error _ -> expected = None
         | _, None -> false
         | (instrs, cost), Some v ->
             (* both blocks are straight-line code and both ran whole *)
             let code =
               Array.concat
                 (List.map
                    (fun (b : Tyco_compiler.Block.block) -> b.blk_code)
                    (Array.to_list unit_.Tyco_compiler.Block.blocks))
             in
             let value =
               match v with `I n -> Value.Vint n | `B b -> Value.Vbool b
             in
             instrs = Array.length code
             && cost
                = Array.fold_left
                    (fun acc ins -> acc + Tyco_compiler.Instr.cost ins)
                    0 code
             && (match !outs with
                | [ (l, [ got ]) ] -> l = label && got = value
                | _ -> false)))

(* ------------------------------------------------------------------ *)
(* Remote operation surfacing                                          *)

let run_site_program site_name src =
  let units = Compile.compile_program (Parser.parse_program src) in
  let unit_ = List.assoc site_name units in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  ignore (Machine.run vm ~budget:100_000);
  vm

let export_surfaces () =
  let vm =
    run_site_program "a" {| site a { export new p p?(x) = nil } |}
  in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rexport_name ("p", _)) -> ()
  | _ -> Alcotest.fail "expected Rexport_name"

let import_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { site = "a"; name = "p"; is_class = false; _ }) -> ()
  | _ -> Alcotest.fail "expected Rimport"

let remote_msg_surfaces () =
  let vm = run_site_program "b" {| site b { import p from a in p![1] } |} in
  ignore (Machine.pop_remote_op vm);
  (* feed the name-service reply by spawning the continuation with a
     remote reference, as the site would *)
  let r = Netref.make ~kind:Netref.Channel ~heap_id:0 ~site_id:9 ~ip:9 in
  (match Machine.pop_remote_op vm with
  | None -> ()
  | Some _ -> Alcotest.fail "only one op expected");
  Machine.spawn vm ~block:1 ~env:[ Value.Vnetref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rmsg (r', "val", [| Value.Vint 1 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rmsg"

let fetch_surfaces () =
  let vm = run_site_program "b" {| site b { import K from a in K[5] } |} in
  (match Machine.pop_remote_op vm with
  | Some (Machine.Rimport { is_class = true; _ }) -> ()
  | _ -> Alcotest.fail "expected class import");
  let r = Netref.make ~kind:Netref.Class ~heap_id:0 ~site_id:9 ~ip:9 in
  Machine.spawn vm ~block:1 ~env:[ Value.Vclassref r ];
  ignore (Machine.run vm ~budget:1000);
  match Machine.pop_remote_op vm with
  | Some (Machine.Rfetch (r', [| Value.Vint 5 |])) ->
      check Alcotest.bool "same ref" true (Netref.equal r r')
  | _ -> Alcotest.fail "expected Rfetch"

(* ------------------------------------------------------------------ *)
(* Metrics and scheduling                                              *)

let budget_respected () =
  let unit_ =
    Compile.compile_proc
      (Parser.parse_proc "def Loop() = Loop[] in Loop[]")
  in
  let area, entry = Link.of_unit unit_ in
  let vm = Machine.create area in
  let io = Machine.builtin_chan vm "io" (fun _ _ -> ()) in
  Machine.spawn_entry vm ~entry ~io;
  let executed, cost = Machine.run vm ~budget:500 in
  check Alcotest.bool "stopped near budget" true
    (executed >= 500 && executed < 600);
  check Alcotest.bool "cost positive" true (cost > 0);
  check Alcotest.bool "still runnable" true (Machine.runnable vm)

let thread_granularity () =
  let vm, _ =
    run_vm
      {| def Cell(self, v) =
           self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
         in new c (Cell[c, 0] | new r (c!read[r] | r?(v) = io!printi[v])) |}
  in
  let d = Stats.dist (Machine.stats vm) "thread_len" in
  check Alcotest.bool "threads are tens of instructions" true
    (Stats.Dist.count d > 0 && Stats.Dist.mean d < 100.0);
  let threads =
    Stats.Counter.value (Stats.counter (Machine.stats vm) "threads")
  in
  check Alcotest.bool "several threads ran" true (threads >= 4)

let tests =
  [ ("msg then obj", `Quick, msg_then_obj);
    ("obj then msg", `Quick, obj_then_msg);
    ("fifo messages", `Quick, fifo_messages);
    ("fifo objects", `Quick, fifo_objects);
    ("label dispatch", `Quick, label_dispatch);
    ("unmatched message parks", `Quick, unmatched_message_parks);
    ("closure captures env", `Quick, closure_captures_environment);
    ("class group mutual recursion", `Quick, class_env_mutual_recursion);
    ("nested defs", `Quick, nested_defs);
    ("expression ops", `Quick, expression_ops);
    ("if branches", `Quick, if_branches);
    ("string values", `Quick, string_values);
    ("vm dynamic errors", `Quick, vm_errors);
    ("export surfaces remote op", `Quick, export_surfaces);
    ("import surfaces remote op", `Quick, import_surfaces);
    ("remote message surfaces", `Quick, remote_msg_surfaces);
    ("fetch surfaces", `Quick, fetch_surfaces);
    ("run budget respected", `Quick, budget_respected);
    ("thread granularity", `Quick, thread_granularity);
    ("fuser fallback", `Quick, fuser_fallback);
    fused_expressions ]
