module Ast = Tyco_syntax.Ast

type t =
  | Push_int of int
  | Push_bool of bool
  | Push_str of string
  | Load of int
  | Store of int
  | Binop of Ast.binop
  | Unop of Ast.unop
  | Jump of int
  | Jump_if_false of int
  | New_chan of int
  | Trmsg of { label : string; lid : int; argc : int }
  | Trobj of int
  | Defgroup of int
  | Instof of int
  | Export_name of string
  | Export_class of string * int
  | Import_name of { site : string; name : string; cont : int; captures : int array }
  | Import_class of { site : string; name : string; cont : int; captures : int array }

let binop_name = function
  | Ast.Add -> "add" | Ast.Sub -> "sub" | Ast.Mul -> "mul" | Ast.Div -> "div"
  | Ast.Mod -> "mod" | Ast.Eq -> "eq" | Ast.Neq -> "neq" | Ast.Lt -> "lt"
  | Ast.Le -> "le" | Ast.Gt -> "gt" | Ast.Ge -> "ge" | Ast.And -> "and"
  | Ast.Or -> "or"

let pp ppf = function
  | Push_int n -> Format.fprintf ppf "pushi %d" n
  | Push_bool b -> Format.fprintf ppf "pushb %b" b
  | Push_str s -> Format.fprintf ppf "pushs %S" s
  | Load i -> Format.fprintf ppf "load %d" i
  | Store i -> Format.fprintf ppf "store %d" i
  | Binop op -> Format.pp_print_string ppf (binop_name op)
  | Unop Ast.Neg -> Format.pp_print_string ppf "neg"
  | Unop Ast.Not -> Format.pp_print_string ppf "not"
  | Jump n -> Format.fprintf ppf "jmp %d" n
  | Jump_if_false n -> Format.fprintf ppf "jmpf %d" n
  | New_chan i -> Format.fprintf ppf "newc %d" i
  | Trmsg { label; argc; _ } -> Format.fprintf ppf "trmsg %s/%d" label argc
  | Trobj mt -> Format.fprintf ppf "trobj mt%d" mt
  | Defgroup g -> Format.fprintf ppf "defgroup g%d" g
  | Instof n -> Format.fprintf ppf "instof %d" n
  | Export_name x -> Format.fprintf ppf "export %s" x
  | Export_class (x, slot) -> Format.fprintf ppf "exportc %s %d" x slot
  | ( Import_name { site; name; cont; captures }
    | Import_class { site; name; cont; captures } ) as ins ->
      Format.fprintf ppf "%s %s.%s b%d [%s]"
        (match ins with Import_name _ -> "import" | _ -> "importc")
        site name cont
        (String.concat "," (Array.to_list (Array.map string_of_int captures)))

(* Rough per-instruction virtual-time costs, in nanoseconds of the
   simulated clock.  Scaled so that a communication reduction costs a
   few tens of units, matching the paper's granularity claim. *)
let cost = function
  | Push_int _ | Push_bool _ | Push_str _ | Load _ | Store _ -> 1
  | Binop _ | Unop _ -> 2
  | Jump _ | Jump_if_false _ -> 1
  | New_chan _ -> 6
  | Trmsg _ -> 12
  | Trobj _ -> 12
  | Defgroup _ -> 8
  | Instof _ -> 10
  | Export_name _ | Export_class _ -> 20
  | Import_name _ | Import_class _ -> 20
