module Ast = Tyco_syntax.Ast

type site = string

type value =
  | Vid of Term.id
  | Vint of int
  | Vbool of bool
  | Vstr of string

type atom =
  | Amsg of Term.id * string * value list
  | Aobj of Term.id * Term.method_ list
  | Ainst of Term.cid * value list

type event =
  | Ecomm of site * string * string
  | Einst of site * string
  | Eship_msg of site * site * string
  | Eship_obj of site * site * string
  | Efetch of site * site * string
  | Eoutput of site * string * value list

exception Stuck of string

let stuck fmt = Format.kasprintf (fun m -> raise (Stuck m)) fmt

type t = {
  fresh : int;
  age : int;
  defs : ((site * string) * Term.defn list) list;
  atoms : (int * site * atom) list; (* oldest first *)
  outs : (site * string * value list) list; (* newest first *)
  inputs : (site * int list) list; (* pending io inputs per site *)
  (* class names marked for export: when the matching [def] is
     decomposed (with its enclosing binders already freshened), a
     public alias group is registered under the original names *)
  pending_exports : (site * string) list;
}

let empty =
  { fresh = 0; age = 0; defs = []; atoms = []; outs = []; inputs = [];
    pending_exports = [] }

let mark_exports t site names =
  { t with
    pending_exports =
      List.map (fun x -> (site, x)) names @ t.pending_exports }

let with_inputs t inputs = { t with inputs }
let atoms t = List.map (fun (_, s, a) -> (s, a)) t.atoms
let outputs t = List.rev t.outs

(* ------------------------------------------------------------------ *)
(* Expression evaluation (strict, at atom-creation time).              *)

let value_to_expr = function
  | Vid i -> Term.Eid i
  | Vint n -> Term.Elit (Term.Lint n)
  | Vbool b -> Term.Elit (Term.Lbool b)
  | Vstr s -> Term.Elit (Term.Lstr s)

(* Bind a method's or class's parameters to the arguments: a value
   bound where the body uses the parameter as a channel is a dynamic
   error, like an ill-typed operand. *)
let bind params vs body =
  let map = List.combine params (List.map value_to_expr vs) in
  try Term.subst map body
  with Invalid_argument _ ->
    stuck "a value passed where a channel is expected"

let rec eval ~at (e : Term.expr) : value =
  match e with
  | Term.Eid id -> Vid (Term.localize_id ~at id)
  | Term.Elit (Term.Lint n) -> Vint n
  | Term.Elit (Term.Lbool b) -> Vbool b
  | Term.Elit (Term.Lstr s) -> Vstr s
  | Term.Eun (Ast.Neg, a) -> (
      match eval ~at a with
      | Vint n -> Vint (-n)
      | _ -> stuck "negation of a non-integer")
  | Term.Eun (Ast.Not, a) -> (
      match eval ~at a with
      | Vbool b -> Vbool (not b)
      | _ -> stuck "'not' of a non-boolean")
  | Term.Ebin (op, a, b) -> (
      let va = eval ~at a and vb = eval ~at b in
      match (op, va, vb) with
      | Ast.Add, Vint x, Vint y -> Vint (x + y)
      | Ast.Sub, Vint x, Vint y -> Vint (x - y)
      | Ast.Mul, Vint x, Vint y -> Vint (x * y)
      | Ast.Div, Vint _, Vint 0 -> stuck "division by zero"
      | Ast.Div, Vint x, Vint y -> Vint (x / y)
      | Ast.Mod, Vint _, Vint 0 -> stuck "modulo by zero"
      | Ast.Mod, Vint x, Vint y -> Vint (x mod y)
      | Ast.Lt, Vint x, Vint y -> Vbool (x < y)
      | Ast.Le, Vint x, Vint y -> Vbool (x <= y)
      | Ast.Gt, Vint x, Vint y -> Vbool (x > y)
      | Ast.Ge, Vint x, Vint y -> Vbool (x >= y)
      | Ast.Eq, x, y -> Vbool (x = y)
      | Ast.Neq, x, y -> Vbool (x <> y)
      | Ast.And, Vbool x, Vbool y -> Vbool (x && y)
      | Ast.Or, Vbool x, Vbool y -> Vbool (x || y)
      | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Lt | Ast.Le
        | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _ ->
          stuck "ill-typed operands in builtin expression")

(* ------------------------------------------------------------------ *)
(* Decomposition into atoms (structural-congruence normal form).       *)

let io_name = "io"

(* Fresh copies of names, newest first as [(x, x')].  The [$] suffix
   cannot be written in source programs, so fresh names never collide
   with public (exported) ones. *)
let fresh_names t xs =
  List.fold_left
    (fun (t, ren) x ->
      ( { t with fresh = t.fresh + 1 },
        (x, Printf.sprintf "%s$%d" x t.fresh) :: ren ))
    (t, []) xs

(* Install a definition group at a site: each member names the group. *)
let register t site group =
  List.fold_left
    (fun t (d : Term.defn) ->
      { t with defs = ((site, d.Term.d_name), group) :: t.defs })
    t group

let rec add_proc t site (p : Term.proc) : t =
  match p with
  | Term.Nil -> t
  | Term.Par (a, b) -> add_proc (add_proc t site a) site b
  | Term.New (xs, q) ->
      (* [Split]/[New]: lift the restriction, freshening the names *)
      let t, ren = fresh_names t xs in
      add_proc t site
        (Term.subst
           (List.map (fun (x, x') -> (x, Term.Eid (Term.Plain x'))) ren)
           q)
  | Term.If (e, a, b) -> (
      match eval ~at:site e with
      | Vbool true -> add_proc t site a
      | Vbool false -> add_proc t site b
      | _ -> stuck "condition is not a boolean")
  | Term.Msg (x, l, es) ->
      let vs = List.map (eval ~at:site) es in
      send t site (Term.localize_id ~at:site x) l vs
  | Term.Obj (x, ms) ->
      push t site (Aobj (Term.localize_id ~at:site x, ms))
  | Term.Inst (xc, es) ->
      let vs = List.map (eval ~at:site) es in
      push t site (Ainst (xc, vs))
  | Term.Def (ds, q) ->
      (* [Def]: lift the group to the definition table under fresh
         class names; internal references are retargeted. *)
      let t, ren =
        fresh_names t (List.map (fun (d : Term.defn) -> d.d_name) ds)
      in
      let retarget =
        Term.subst_cid
          (List.map (fun (x, x') -> (x, Term.Clocated (site, x'))) ren)
      in
      let t =
        register t site
          (List.map
             (fun (d : Term.defn) ->
               { d with Term.d_name = List.assoc d.d_name ren;
                        d_body = retarget d.d_body })
             ds)
      in
      (* an exported group also registers under its public (original)
         names, internal references retargeted to the public copies:
         the network-level [def s.D] of the paper's §4 translation, with
         the enclosing binders already freshened into the bodies *)
      let of_group (s, x) =
        String.equal s site
        && List.exists (fun (d : Term.defn) -> String.equal d.d_name x) ds
      in
      let t =
        if not (List.exists of_group t.pending_exports) then t
        else
          let public =
            Term.subst_cid
              (List.map
                 (fun (d : Term.defn) ->
                   (d.d_name, Term.Clocated (site, d.d_name)))
                 ds)
          in
          let t =
            register t site
              (List.map
                 (fun (d : Term.defn) ->
                   { d with Term.d_body = public d.d_body })
                 ds)
          in
          { t with
            pending_exports =
              List.filter (fun e -> not (of_group e)) t.pending_exports }
      in
      add_proc t site (retarget q)

and push t site atom =
  { t with age = t.age + 1; atoms = t.atoms @ [ (t.age, site, atom) ] }

(* A message at a site: an atom, unless it goes to the builtin [io].
   Then it is an output, or a [readi] that pops the site's next input
   and replies on its argument channel; a starved read blocks
   silently. *)
and send t site x l vs =
  if x <> Term.Plain io_name then push t site (Amsg (x, l, vs))
  else if not (String.equal l "readi") then
    { t with outs = (site, l, vs) :: t.outs }
  else
    match (vs, List.assoc_opt site t.inputs) with
    | [ Vid k ], Some (v :: rest) ->
        let t =
          { t with inputs = (site, rest) :: List.remove_assoc site t.inputs }
        in
        add_proc t site (Term.Msg (k, "val", [ Term.Elit (Term.Lint v) ]))
    | [ Vid _ ], (Some [] | None) -> t
    | _ -> stuck "io!readi expects one reply channel"

(* ------------------------------------------------------------------ *)
(* Reduction: one function per rule.  Each consumes its redex's atoms,
   builds the successor state and raises the rule's dynamic errors.    *)

let remove_atom t key =
  { t with atoms = List.filter (fun (k, _, _) -> k <> key) t.atoms }

let group_at t s x =
  match List.assoc_opt (s, x) t.defs with
  | Some group -> group
  | None -> stuck "unbound class %s.%s" s x

(* COMM: the message [mk] meets the object [ok] at [site]'s channel. *)
let comm t site x l vs mk ok ms =
  let m =
    match
      List.find_opt
        (fun (m : Term.method_) -> String.equal m.Term.m_label l)
        ms
    with
    | Some m -> m
    | None -> stuck "channel '%s': no method '%s' (protocol error)" x l
  in
  if List.length m.Term.m_params <> List.length vs then
    stuck "channel '%s' method '%s': arity mismatch" x l;
  ( Ecomm (site, x, l),
    add_proc (remove_atom (remove_atom t mk) ok) site
      (bind m.Term.m_params vs m.Term.m_body) )

(* INST: instantiating a class defined at the instantiating site. *)
let inst t k site c vs =
  let x =
    match c with
    | Term.Cplain x -> stuck "unbound class '%s'" x
    | Term.Clocated (_, x) -> x
  in
  let d =
    List.find (fun (d : Term.defn) -> String.equal d.Term.d_name x)
      (group_at t site x)
  in
  if List.length d.d_params <> List.length vs then
    stuck "class %s: arity mismatch" x;
  ( Einst (site, x),
    add_proc (remove_atom t k) site (bind d.d_params vs d.d_body) )

let translate_value ~from_ ~to_ = function
  | Vid id -> Vid (Term.localize_id ~at:to_ (Term.sigma_id ~from_ id))
  | (Vint _ | Vbool _ | Vstr _) as v -> v

let translate_method ~from_ ~to_ (m : Term.method_) =
  let m = Term.sigma_method ~from_ m in
  { m with Term.m_body = Term.localize ~at:to_ m.Term.m_body }

(* SHIPM: a message to [to_.x] moves to [to_], its arguments
   σ-translated; there it may be an I/O request. *)
let ship_msg t k from_ to_ x l vs =
  ( Eship_msg (from_, to_, x),
    send (remove_atom t k) to_ (Term.Plain x) l
      (List.map (translate_value ~from_ ~to_) vs) )

(* SHIPO: an object at [to_.x] moves to [to_], its methods
   σ-translated. *)
let ship_obj t k from_ to_ x ms =
  ( Eship_obj (from_, to_, x),
    push (remove_atom t k) to_
      (Aobj (Term.Plain x, List.map (translate_method ~from_ ~to_) ms)) )

(* FETCH: instantiating a class defined at site [s] copies its whole
   group (it may be mutually recursive) into the local table under
   fresh names, internal references retargeted to the local copies and
   the bodies' free names σ-translated.  σ excludes the class
   parameters (they are binding occurrences); localization only
   touches located identifiers, which are never bound. *)
let fetch t k site s x vs =
  let group = group_at t s x in
  let t, ren =
    fresh_names (remove_atom t k)
      (List.map (fun (d : Term.defn) -> d.Term.d_name) group)
  in
  let retarget =
    Term.map_cids (function
      | Term.Clocated (s', x')
        when String.equal s' s && List.mem_assoc x' ren ->
          Term.Clocated (site, List.assoc x' ren)
      | c -> c)
  in
  let copied =
    List.map
      (fun (d : Term.defn) ->
        { d with
          Term.d_name = List.assoc d.Term.d_name ren;
          d_body =
            retarget
              (Term.localize ~at:site
                 (Term.sigma_defn ~from_:s d).Term.d_body) })
      group
  in
  ( Efetch (site, s, x),
    push (register t site copied) site
      (Ainst (Term.Clocated (site, List.assoc x ren), vs)) )

(* ------------------------------------------------------------------ *)
(* The redexes of a state, handed to [f] in the order [step] picks
   them: COMM (the oldest message first, then the oldest object waiting
   at its channel), local INST, SHIPM, SHIPO, FETCH; ties go by atom
   age.  A redex is its rule's application, delayed: only a redex that
   fires builds its successor.  An instantiation of a class at another
   site is a FETCH; every other one, an unbound plain class included,
   is an INST.                                                         *)

let remote site = function
  | Term.Clocated (s, _) -> not (String.equal s site)
  | Term.Cplain _ -> false

(* A plain recursion rather than [List.iter] over a wrapper closure:
   [step] walks the atoms on every reduction. *)
let rec iter_atoms g = function
  | [] -> ()
  | (k, site, a) :: rest ->
      g k site a;
      iter_atoms g rest

let iter_redexes t (f : (unit -> event * t) -> unit) =
  let each g = iter_atoms g t.atoms in
  each (fun mk site -> function
    | Amsg (Term.Plain x, l, vs) ->
        each (fun ok s -> function
          | Aobj (Term.Plain y, ms)
            when String.equal s site && String.equal x y ->
              f (fun () -> comm t site x l vs mk ok ms)
          | Aobj _ | Amsg _ | Ainst _ -> ())
    | Amsg _ | Aobj _ | Ainst _ -> ());
  each (fun k site -> function
    | Ainst (c, vs) when not (remote site c) ->
        f (fun () -> inst t k site c vs)
    | Ainst _ | Amsg _ | Aobj _ -> ());
  each (fun k site -> function
    | Amsg (Term.Located (s, x), l, vs) ->
        f (fun () -> ship_msg t k site s x l vs)
    | Amsg _ | Aobj _ | Ainst _ -> ());
  each (fun k site -> function
    | Aobj (Term.Located (s, x), ms) ->
        f (fun () -> ship_obj t k site s x ms)
    | Aobj _ | Amsg _ | Ainst _ -> ());
  each (fun k site -> function
    | Ainst ((Term.Clocated (s, x) as c), vs) when remote site c ->
        f (fun () -> fetch t k site s x vs)
    | Ainst _ | Amsg _ | Aobj _ -> ())

(* Stops the walk at the first redex. *)
exception First of (unit -> event * t)

let step t =
  match iter_redexes t (fun r -> raise_notrace (First r)) with
  | () -> None
  | exception First r -> Some (r ())

let quiescent t =
  match iter_redexes t (fun r -> raise_notrace (First r)) with
  | () -> true
  | exception First _ -> false

let all_steps t =
  let steps = ref [] in
  iter_redexes t (fun r -> steps := r () :: !steps);
  List.rev !steps

let run ?(max_steps = 1_000_000) t =
  let rec go t events n =
    if n >= max_steps then
      failwith (Printf.sprintf "Network.run: no quiescence after %d steps" n)
    else
      match step t with
      | None -> (t, List.rev events)
      | Some (ev, t') -> go t' (ev :: events) (n + 1)
  in
  go t [] 0

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let pp_value ppf = function
  | Vid i -> Term.pp_id ppf i
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b
  | Vstr s -> Fmt.pf ppf "%S" s

let pp_values = Tyco_support.Pretty.comma_list pp_value

let pp_event ppf = function
  | Ecomm (s, x, l) -> Fmt.pf ppf "comm %s: %s!%s" s x l
  | Einst (s, x) -> Fmt.pf ppf "inst %s: %s" s x
  | Eship_msg (r, s, x) -> Fmt.pf ppf "ship-msg %s->%s: %s" r s x
  | Eship_obj (r, s, x) -> Fmt.pf ppf "ship-obj %s->%s: %s" r s x
  | Efetch (r, s, x) -> Fmt.pf ppf "fetch %s<-%s: %s" r s x
  | Eoutput (s, l, vs) -> Fmt.pf ppf "io %s: %s[%a]" s l pp_values vs

let pp_atom ppf = function
  | Amsg (x, l, vs) -> Fmt.pf ppf "%a!%s[%a]" Term.pp_id x l pp_values vs
  | Aobj (x, ms) ->
      Fmt.pf ppf "%a?{%a}" Term.pp_id x
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (m : Term.method_) ->
             Fmt.string ppf m.Term.m_label))
        ms
  | Ainst (c, vs) ->
      (match c with
      | Term.Cplain x -> Fmt.pf ppf "%s[%a]" x pp_values vs
      | Term.Clocated (s, x) -> Fmt.pf ppf "%s.%s[%a]" s x pp_values vs)

(* The state as plain data, its atoms sorted and their ages dropped,
   marshalled without sharing: equal strings are equal structures. *)
let key t =
  Marshal.to_string
    (List.sort compare (atoms t), t.defs, t.inputs, t.pending_exports)
    [ Marshal.No_sharing ]

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (k, s, a) -> Fmt.pf ppf "%d %s: %a@ " k s pp_atom a)
    t.atoms;
  Fmt.pf ppf "@]"
