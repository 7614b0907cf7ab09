module Ast = Tyco_syntax.Ast

exception Error of string

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let caps_string caps =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list caps)) ^ "]"

let pp ppf (u : Block.unit_) =
  Format.fprintf ppf "unit entry=b%d@." u.entry;
  Array.iter
    (fun (b : Block.block) ->
      Format.fprintf ppf "block b%d %S params=%d slots=%d {@." b.blk_id
        b.blk_name b.blk_nparams b.blk_nslots;
      Array.iter (fun ins -> Format.fprintf ppf "  %a@." Instr.pp ins) b.blk_code;
      Format.fprintf ppf "}@.")
    u.blocks;
  Array.iter
    (fun (mt : Block.mtable) ->
      Format.fprintf ppf "mtable mt%d caps=%s {@." mt.mt_id
        (caps_string mt.mt_captures);
      Array.iter
        (fun (e : Block.mentry) ->
          Format.fprintf ppf "  %s -> b%d/%d@." e.me_label e.me_block
            e.me_nparams)
        mt.mt_entries;
      Format.fprintf ppf "}@.")
    u.mtables;
  Array.iter
    (fun (g : Block.group) ->
      Format.fprintf ppf "group g%d caps=%s slots=%s {@." g.grp_id
        (caps_string g.grp_captures)
        (caps_string g.grp_slots);
      Array.iter
        (fun (c : Block.class_sig) ->
          Format.fprintf ppf "  %s -> b%d/%d@." c.cls_name c.cls_block
            c.cls_nparams)
        g.grp_classes;
      Format.fprintf ppf "}@.")
    u.groups

let print u = Format.asprintf "%a" pp u

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

(* tokenize a line into words, keeping OCaml-quoted strings intact *)
let words_of_line lineno line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if line.[i] = ' ' || line.[i] = '\t' then go (i + 1) acc
    else if line.[i] = '"' then begin
      (* find the matching unescaped quote *)
      let buf = Buffer.create 16 in
      Buffer.add_char buf '"';
      let rec scan j =
        if j >= n then err "line %d: unterminated string" lineno
        else begin
          Buffer.add_char buf line.[j];
          if line.[j] = '"' then j + 1
          else if line.[j] = '\\' && j + 1 < n then begin
            Buffer.add_char buf line.[j + 1];
            scan (j + 2)
          end
          else scan (j + 1)
        end
      in
      let next = scan (i + 1) in
      go next (Buffer.contents buf :: acc)
    end
    else begin
      let j = ref i in
      while !j < n && line.[!j] <> ' ' && line.[!j] <> '\t' do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

let int_of lineno s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> err "line %d: expected an integer, got %S" lineno s

let ref_of lineno prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    int_of lineno (String.sub s pl (String.length s - pl))
  else err "line %d: expected %s<id>, got %S" lineno prefix s

let caps_of lineno s =
  if String.length s < 2 || s.[0] <> '[' || s.[String.length s - 1] <> ']' then
    err "line %d: expected [..] capture list, got %S" lineno s;
  let inner = String.sub s 1 (String.length s - 2) in
  if inner = "" then [||]
  else
    Array.of_list
      (List.map (int_of lineno) (String.split_on_char ',' inner))

let string_of lineno s =
  try Scanf.sscanf s "%S" (fun x -> x)
  with Scanf.Scan_failure _ | End_of_file ->
    err "line %d: expected a quoted string, got %S" lineno s

(* "key=value" accessor *)
let kv lineno key s =
  match String.index_opt s '=' with
  | Some i when String.sub s 0 i = key ->
      String.sub s (i + 1) (String.length s - i - 1)
  | _ -> err "line %d: expected %s=<value>, got %S" lineno key s

let binop_of_mnemonic = function
  | "add" -> Some Ast.Add | "sub" -> Some Ast.Sub | "mul" -> Some Ast.Mul
  | "div" -> Some Ast.Div | "mod" -> Some Ast.Mod | "eq" -> Some Ast.Eq
  | "neq" -> Some Ast.Neq | "lt" -> Some Ast.Lt | "le" -> Some Ast.Le
  | "gt" -> Some Ast.Gt | "ge" -> Some Ast.Ge | "and" -> Some Ast.And
  | "or" -> Some Ast.Or | _ -> None

let parse_instr lineno ws : Instr.t =
  match ws with
  | [ "pushi"; n ] -> Instr.Push_int (int_of lineno n)
  | [ "pushb"; "true" ] -> Instr.Push_bool true
  | [ "pushb"; "false" ] -> Instr.Push_bool false
  | [ "pushs"; s ] -> Instr.Push_str (string_of lineno s)
  | [ "load"; n ] -> Instr.Load (int_of lineno n)
  | [ "store"; n ] -> Instr.Store (int_of lineno n)
  | [ "neg" ] -> Instr.Unop Ast.Neg
  | [ "not" ] -> Instr.Unop Ast.Not
  | [ "jmp"; n ] -> Instr.Jump (int_of lineno n)
  | [ "jmpf"; n ] -> Instr.Jump_if_false (int_of lineno n)
  | [ "newc"; n ] -> Instr.New_chan (int_of lineno n)
  | [ "trmsg"; ln ] -> (
      match String.rindex_opt ln '/' with
      | Some i ->
          Instr.Trmsg
            {
              label = String.sub ln 0 i;
              lid = -1;
              argc =
                int_of lineno (String.sub ln (i + 1) (String.length ln - i - 1));
            }
      | None -> err "line %d: expected trmsg label/argc" lineno)
  | [ "trobj"; mt ] -> Instr.Trobj (ref_of lineno "mt" mt)
  | [ "defgroup"; g ] -> Instr.Defgroup (ref_of lineno "g" g)
  | [ "instof"; n ] -> Instr.Instof (int_of lineno n)
  | [ "export"; x ] -> Instr.Export_name x
  | [ "exportc"; x; slot ] -> Instr.Export_class (x, int_of lineno slot)
  | [ ("import" | "importc") as which; target; cont; caps ] -> (
      match String.index_opt target '.' with
      | Some i ->
          let site = String.sub target 0 i in
          let name =
            String.sub target (i + 1) (String.length target - i - 1)
          in
          let cont = ref_of lineno "b" cont in
          let captures = caps_of lineno caps in
          if which = "import" then
            Instr.Import_name { site; name; cont; captures }
          else Instr.Import_class { site; name; cont; captures }
      | None -> err "line %d: expected site.name" lineno)
  | [ op ] when binop_of_mnemonic op <> None ->
      Instr.Binop (Option.get (binop_of_mnemonic op))
  | _ -> err "line %d: unknown instruction %S" lineno (String.concat " " ws)

type section =
  | Sblock of int * string * int * int * Instr.t list
  | Smtable of int * int array * Block.mentry list
  | Sgroup of int * int array * int array * Block.class_sig list

let parse text =
  let lines = String.split_on_char '\n' text in
  let entry = ref (-1) in
  let sections = ref [] in
  let current = ref None in
  let close lineno =
    match !current with
    | None -> ()
    | Some s ->
        ignore lineno;
        sections := s :: !sections;
        current := None
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line = String.trim line in
      if line = "" then ()
      else if line = "}" then
        match !current with
        | Some _ -> close lineno
        | None -> err "line %d: unmatched '}'" lineno
      else
        let ws = words_of_line lineno line in
        match (ws, !current) with
        | [ "unit"; e ], None -> entry := ref_of lineno "b" (kv lineno "entry" e)
        | "block" :: b :: name :: params :: slots :: [ "{" ], None ->
            current :=
              Some
                (Sblock
                   ( ref_of lineno "b" b,
                     string_of lineno name,
                     int_of lineno (kv lineno "params" params),
                     int_of lineno (kv lineno "slots" slots),
                     [] ))
        | "mtable" :: mt :: caps :: [ "{" ], None ->
            current :=
              Some
                (Smtable
                   ( ref_of lineno "mt" mt,
                     caps_of lineno (kv lineno "caps" caps),
                     [] ))
        | "group" :: g :: caps :: slots :: [ "{" ], None ->
            current :=
              Some
                (Sgroup
                   ( ref_of lineno "g" g,
                     caps_of lineno (kv lineno "caps" caps),
                     caps_of lineno (kv lineno "slots" slots),
                     [] ))
        | _, Some (Sblock (id, name, params, slots, code)) ->
            current :=
              Some
                (Sblock (id, name, params, slots, parse_instr lineno ws :: code))
        | [ label; "->"; target ], Some (Smtable (id, caps, entries)) -> (
            match String.rindex_opt target '/' with
            | Some i ->
                let blk =
                  ref_of lineno "b" (String.sub target 0 i)
                in
                let np =
                  int_of lineno
                    (String.sub target (i + 1) (String.length target - i - 1))
                in
                current :=
                  Some
                    (Smtable
                       ( id, caps,
                         { Block.me_label = label; me_block = blk;
                           me_nparams = np }
                         :: entries ))
            | None -> err "line %d: expected b<id>/<arity>" lineno)
        | [ label; "->"; target ], Some (Sgroup (id, caps, slots, classes)) -> (
            match String.rindex_opt target '/' with
            | Some i ->
                let blk = ref_of lineno "b" (String.sub target 0 i) in
                let np =
                  int_of lineno
                    (String.sub target (i + 1) (String.length target - i - 1))
                in
                current :=
                  Some
                    (Sgroup
                       ( id, caps, slots,
                         { Block.cls_name = label; cls_block = blk;
                           cls_nparams = np }
                         :: classes ))
            | None -> err "line %d: expected b<id>/<arity>" lineno)
        | _, _ -> err "line %d: cannot parse %S" lineno line)
    lines;
  (match !current with
  | Some _ -> err "unterminated section at end of input"
  | None -> ());
  let sections = List.rev !sections in
  let blocks = Hashtbl.create 8 in
  let mtables = Hashtbl.create 8 in
  let groups = Hashtbl.create 8 in
  List.iter
    (function
      | Sblock (id, name, params, slots, code) ->
          if Hashtbl.mem blocks id then err "duplicate block b%d" id;
          Hashtbl.add blocks id
            { Block.blk_id = id; blk_name = name; blk_nparams = params;
              blk_nslots = slots; blk_code = Array.of_list (List.rev code) }
      | Smtable (id, caps, entries) ->
          if Hashtbl.mem mtables id then err "duplicate mtable mt%d" id;
          Hashtbl.add mtables id
            { Block.mt_id = id; mt_captures = caps;
              mt_entries = Array.of_list (List.rev entries) }
      | Sgroup (id, caps, slots, classes) ->
          if Hashtbl.mem groups id then err "duplicate group g%d" id;
          Hashtbl.add groups id
            { Block.grp_id = id; grp_captures = caps;
              grp_classes = Array.of_list (List.rev classes);
              grp_slots = slots })
    sections;
  let dense what tbl n =
    Array.init n (fun i ->
        match Hashtbl.find_opt tbl i with
        | Some v -> v
        | None -> err "missing %s %d (ids must be dense)" what i)
  in
  let u =
    { Block.blocks = dense "block" blocks (Hashtbl.length blocks);
      mtables = dense "mtable" mtables (Hashtbl.length mtables);
      groups = dense "group" groups (Hashtbl.length groups);
      entry = !entry }
  in
  if !entry < 0 then err "missing 'unit entry=bN' header";
  (* reuse the byte-code decoder's reference validation *)
  (try ignore (Bytecode.unit_of_string (Bytecode.unit_to_string u))
   with Tyco_support.Wire.Malformed m -> err "invalid unit: %s" m);
  u
