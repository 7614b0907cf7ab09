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

let rec add_proc t site (p : Term.proc) : t =
  match p with
  | Term.Nil -> t
  | Term.Par (a, b) -> add_proc (add_proc t site a) site b
  | Term.New (xs, q) ->
      (* [Split]/[New]: lift the restriction, freshening the names.  The
         [$] suffix cannot be written in source programs, so fresh names
         never collide with public (exported) ones. *)
      let t, renaming =
        List.fold_left
          (fun (t, ren) x ->
            let x' = Printf.sprintf "%s$%d" x t.fresh in
            ({ t with fresh = t.fresh + 1 },
             (x, Term.Eid (Term.Plain x')) :: ren))
          (t, []) xs
      in
      add_proc t site (Term.subst renaming q)
  | Term.If (e, a, b) -> (
      match eval ~at:site e with
      | Vbool true -> add_proc t site a
      | Vbool false -> add_proc t site b
      | _ -> stuck "condition is not a boolean")
  | Term.Msg (x, l, es) ->
      let vs = List.map (eval ~at:site) es in
      let x = Term.localize_id ~at:site x in
      if x = Term.Plain io_name then
        if String.equal l "readi" then
          (* input: pop the next supplied integer and reply on the
             argument channel; a starved read blocks silently *)
          match (vs, List.assoc_opt site t.inputs) with
          | [ Vid k ], Some (v :: rest) ->
              let t =
                { t with
                  inputs = (site, rest) :: List.remove_assoc site t.inputs }
              in
              add_proc t site (Term.Msg (k, "val", [ Term.Elit (Term.Lint v) ]))
          | [ Vid _ ], (Some [] | None) -> t
          | _ -> stuck "io!readi expects one reply channel"
        else { t with outs = (site, l, vs) :: t.outs }
      else push t site (Amsg (x, l, vs))
  | Term.Obj (x, ms) ->
      push t site (Aobj (Term.localize_id ~at:site x, ms))
  | Term.Inst (xc, es) ->
      let vs = List.map (eval ~at:site) es in
      push t site (Ainst (xc, vs))
  | Term.Def (ds, q) ->
      (* [Def]: lift the group to the definition table under fresh
         class names; internal references are retargeted. *)
      let t, renaming =
        List.fold_left
          (fun (t, ren) (d : Term.defn) ->
            let x' = Printf.sprintf "%s$%d" d.d_name t.fresh in
            ({ t with fresh = t.fresh + 1 },
             (d.d_name, Term.Clocated (site, x')) :: ren))
          (t, []) ds
      in
      let retarget = Term.subst_cid renaming in
      let group =
        List.map
          (fun (d : Term.defn) ->
            let x' =
              match List.assoc d.d_name renaming with
              | Term.Clocated (_, x') -> x'
              | Term.Cplain _ -> assert false
            in
            { d with Term.d_name = x'; d_body = retarget d.d_body })
          ds
      in
      let t =
        List.fold_left
          (fun t (d : Term.defn) ->
            { t with defs = ((site, d.d_name), group) :: t.defs })
          t group
      in
      (* exported groups additionally register under their public
         (original) names, with internal references retargeted to the
         public copies — the network-level [def s.D] of the paper's §4
         translation, now with correctly freshened free names *)
      let exported =
        List.filter
          (fun (d : Term.defn) -> List.mem (site, d.d_name) t.pending_exports)
          ds
      in
      let t =
        if exported = [] then t
        else begin
          let public_renaming =
            List.map
              (fun (d : Term.defn) ->
                (* tagged name of this member -> public name *)
                (match List.assoc d.d_name renaming with
                 | Term.Clocated (_, tagged) -> tagged
                 | Term.Cplain _ -> assert false),
                d.d_name)
              ds
          in
          let to_public =
            Term.map_cids (function
              | Term.Clocated (s', tagged)
                when String.equal s' site
                     && List.mem_assoc tagged public_renaming ->
                  Term.Clocated (site, List.assoc tagged public_renaming)
              | c -> c)
          in
          let public_group =
            List.map
              (fun (d : Term.defn) ->
                let tagged_d =
                  List.find
                    (fun (g : Term.defn) ->
                      match List.assoc d.d_name renaming with
                      | Term.Clocated (_, tg) -> String.equal g.Term.d_name tg
                      | Term.Cplain _ -> false)
                    group
                in
                { tagged_d with
                  Term.d_name = d.d_name;
                  d_body = to_public tagged_d.Term.d_body })
              ds
          in
          let t =
            List.fold_left
              (fun t (d : Term.defn) ->
                { t with defs = ((site, d.Term.d_name), public_group) :: t.defs })
              t public_group
          in
          { t with
            pending_exports =
              List.filter
                (fun (s', x) ->
                  not
                    (String.equal s' site
                    && List.exists
                         (fun (d : Term.defn) -> String.equal d.Term.d_name x)
                         exported))
                t.pending_exports }
        end
      in
      add_proc t site (retarget q)

and push t site atom =
  { t with age = t.age + 1; atoms = t.atoms @ [ (t.age, site, atom) ] }

let register_defs t site (ds : Term.defn list) : t =
  (* Public (exported) groups keep their class names; internal
     references become located at the defining site. *)
  let renaming =
    List.map
      (fun (d : Term.defn) -> (d.d_name, Term.Clocated (site, d.d_name)))
      ds
  in
  let group =
    List.map
      (fun (d : Term.defn) ->
        { d with Term.d_body = Term.subst_cid renaming d.d_body })
      ds
  in
  List.fold_left
    (fun t (d : Term.defn) ->
      { t with defs = ((site, d.d_name), group) :: t.defs })
    t group

(* ------------------------------------------------------------------ *)
(* Reduction.                                                          *)

let remove_atom t key =
  { t with atoms = List.filter (fun (k, _, _) -> k <> key) t.atoms }

let instantiate t site (d : Term.defn) vs =
  if List.length d.d_params <> List.length vs then
    stuck "class %s: arity mismatch" d.d_name;
  add_proc t site (bind d.d_params vs d.d_body)

let translate_value ~from_ ~to_ = function
  | Vid id -> Vid (Term.localize_id ~at:to_ (Term.sigma_id ~from_ id))
  | (Vint _ | Vbool _ | Vstr _) as v -> v

let translate_method ~from_ ~to_ (m : Term.method_) =
  let m = Term.sigma_method ~from_ m in
  { m with Term.m_body = Term.localize ~at:to_ m.Term.m_body }

(* COMM: the oldest message that has a matching object at its site. *)
let find_comm t =
  let objs_at site x =
    List.filter_map
      (fun (k, s, a) ->
        match a with
        | Aobj (ox, ms) when String.equal s site && ox = Term.Plain x ->
            Some (k, ms)
        | Aobj _ | Amsg _ | Ainst _ -> None)
      t.atoms
  in
  let rec go = function
    | [] -> None
    | (k, site, Amsg (Term.Plain x, l, vs)) :: rest -> (
        match objs_at site x with
        | [] -> go rest
        | (ok, ms) :: _ -> Some (k, ok, site, x, l, vs, ms))
    | _ :: rest -> go rest
  in
  go t.atoms

let find_local_inst t =
  List.find_map
    (fun (k, site, a) ->
      match a with
      | Ainst ((Term.Clocated (s, x) as _c), vs) when String.equal s site -> (
          match List.assoc_opt (s, x) t.defs with
          | Some group -> Some (k, site, x, vs, group)
          | None -> stuck "unbound class %s.%s" s x)
      | Ainst (Term.Cplain x, _) -> stuck "unbound class '%s'" x
      | Ainst _ | Amsg _ | Aobj _ -> None)
    t.atoms

let find_ship_msg t =
  List.find_map
    (fun (k, site, a) ->
      match a with
      | Amsg ((Term.Located (s, x) as _i), l, vs) ->
          Some (k, site, s, x, l, vs)
      | Amsg _ | Aobj _ | Ainst _ -> None)
    t.atoms

let find_ship_obj t =
  List.find_map
    (fun (k, site, a) ->
      match a with
      | Aobj (Term.Located (s, x), ms) -> Some (k, site, s, x, ms)
      | Aobj _ | Amsg _ | Ainst _ -> None)
    t.atoms

let find_fetch t =
  List.find_map
    (fun (k, site, a) ->
      match a with
      | Ainst (Term.Clocated (s, x), vs) when not (String.equal s site) ->
          Some (k, site, s, x, vs)
      | Ainst _ | Amsg _ | Aobj _ -> None)
    t.atoms

let step t =
  match find_comm t with
  | Some (mk, ok, site, x, l, vs, ms) ->
      let t = remove_atom (remove_atom t mk) ok in
      let m =
        match
          List.find_opt (fun (m : Term.method_) -> String.equal m.Term.m_label l) ms
        with
        | Some m -> m
        | None -> stuck "channel '%s': no method '%s' (protocol error)" x l
      in
      if List.length m.Term.m_params <> List.length vs then
        stuck "channel '%s' method '%s': arity mismatch" x l;
      let t = add_proc t site (bind m.Term.m_params vs m.Term.m_body) in
      Some (Ecomm (site, x, l), t)
  | None -> (
      match find_local_inst t with
      | Some (k, site, x, vs, group) ->
          let t = remove_atom t k in
          let d =
            List.find (fun (d : Term.defn) -> String.equal d.Term.d_name x) group
          in
          let t = instantiate t site d vs in
          Some (Einst (site, x), t)
      | None -> (
          match find_ship_msg t with
          | Some (k, from_, to_, x, l, vs) ->
              let t = remove_atom t k in
              let vs = List.map (translate_value ~from_ ~to_) vs in
              let t =
                if String.equal x io_name then
                  if String.equal l "readi" then
                    (* remote input request: shipped code reading from
                       its home site's I/O port *)
                    match (vs, List.assoc_opt to_ t.inputs) with
                    | [ Vid kk ], Some (v :: rest) ->
                        let t =
                          { t with
                            inputs =
                              (to_, rest) :: List.remove_assoc to_ t.inputs }
                        in
                        add_proc t to_
                          (Term.Msg (kk, "val", [ Term.Elit (Term.Lint v) ]))
                    | [ Vid _ ], (Some [] | None) -> t
                    | _ -> stuck "io!readi expects one reply channel"
                  else { t with outs = (to_, l, vs) :: t.outs }
                else push t to_ (Amsg (Term.Plain x, l, vs))
              in
              Some (Eship_msg (from_, to_, x), t)
          | None -> (
              match find_ship_obj t with
              | Some (k, from_, to_, x, ms) ->
                  let t = remove_atom t k in
                  let ms = List.map (translate_method ~from_ ~to_) ms in
                  let t = push t to_ (Aobj (Term.Plain x, ms)) in
                  Some (Eship_obj (from_, to_, x), t)
              | None -> (
                  match find_fetch t with
                  | Some (k, site, s, x, vs) -> (
                      match List.assoc_opt (s, x) t.defs with
                      | None -> stuck "unbound class %s.%s" s x
                      | Some group ->
                          let t = remove_atom t k in
                          (* Copy the whole group (it may be mutually
                             recursive), retargeting internal references
                             to the local copies and σ-translating the
                             bodies' free names. *)
                          let t, renaming =
                            List.fold_left
                              (fun (t, ren) (d : Term.defn) ->
                                let x' =
                                  Printf.sprintf "%s$%d" d.Term.d_name t.fresh
                                in
                                ({ t with fresh = t.fresh + 1 },
                                 (d.Term.d_name, x') :: ren))
                              (t, []) group
                          in
                          let retarget =
                            Term.map_cids (function
                              | Term.Clocated (s', x')
                                when String.equal s' s
                                     && List.mem_assoc x' renaming ->
                                  Term.Clocated (site, List.assoc x' renaming)
                              | c -> c)
                          in
                          let copied =
                            List.map
                              (fun (d : Term.defn) ->
                                (* σ excludes the class parameters (they
                                   are binding occurrences); localization
                                   only touches located identifiers, which
                                   are never bound. *)
                                let d' = Term.sigma_defn ~from_:s d in
                                let body =
                                  Term.localize ~at:site d'.Term.d_body
                                in
                                { d with
                                  Term.d_name = List.assoc d.Term.d_name renaming;
                                  d_body = retarget body })
                              group
                          in
                          let t =
                            List.fold_left
                              (fun t (d : Term.defn) ->
                                { t with
                                  defs =
                                    ((site, d.Term.d_name), copied) :: t.defs })
                              t copied
                          in
                          let t =
                            push t site
                              (Ainst
                                 ( Term.Clocated (site, List.assoc x renaming),
                                   vs ))
                          in
                          Some (Efetch (site, s, x), t))
                  | None -> None))))

(* ------------------------------------------------------------------ *)
(* Exhaustive redex enumeration, for the verification tools: unlike
   [step] (which imposes a deterministic FIFO strategy matching the
   byte-code runtime), [all_steps] returns every redex the calculus
   allows — any message may meet any object at its channel.            *)

let all_steps t : (event * t) list =
  let comms =
    List.concat_map
      (fun (mk, site, a) ->
        match a with
        | Amsg (Term.Plain x, l, vs) ->
            List.filter_map
              (fun (ok, s', a') ->
                match a' with
                | Aobj (ox, ms)
                  when String.equal s' site && ox = Term.Plain x -> (
                    match
                      List.find_opt
                        (fun (m : Term.method_) ->
                          String.equal m.Term.m_label l)
                        ms
                    with
                    | Some m when List.length m.Term.m_params = List.length vs
                      ->
                        let t' = remove_atom (remove_atom t mk) ok in
                        let t' =
                          add_proc t' site
                            (bind m.Term.m_params vs m.Term.m_body)
                        in
                        Some (Ecomm (site, x, l), t')
                    | Some _ -> stuck "channel '%s': arity mismatch" x
                    | None ->
                        stuck "channel '%s': no method '%s' (protocol error)"
                          x l)
                | Aobj _ | Amsg _ | Ainst _ -> None)
              t.atoms
        | Amsg _ | Aobj _ | Ainst _ -> [])
      t.atoms
  in
  let insts =
    List.filter_map
      (fun (k, site, a) ->
        match a with
        | Ainst (Term.Clocated (s, x), vs) when String.equal s site -> (
            match List.assoc_opt (s, x) t.defs with
            | Some group ->
                let d =
                  List.find
                    (fun (d : Term.defn) -> String.equal d.Term.d_name x)
                    group
                in
                Some (Einst (site, x), instantiate (remove_atom t k) site d vs)
            | None -> stuck "unbound class %s.%s" s x)
        | Ainst _ | Amsg _ | Aobj _ -> None)
      t.atoms
  in
  (* The shipment and fetch rules are point-to-point and confluent with
     everything else (the paper: migration is deterministic); exploring
     one order suffices, so they are appended as single options via the
     deterministic step when no local redex is chosen.  For simplicity
     and soundness we enumerate them individually as well. *)
  let ships =
    List.filter_map
      (fun (k, site, a) ->
        match a with
        | Amsg ((Term.Located (s, x) as _i), l, vs) ->
            let t' = remove_atom t k in
            let vs' = List.map (translate_value ~from_:site ~to_:s) vs in
            let t' =
              if String.equal x io_name then
                if String.equal l "readi" then
                  match (vs', List.assoc_opt s t'.inputs) with
                  | [ Vid kk ], Some (v :: rest) ->
                      let t' =
                        { t' with
                          inputs =
                            (s, rest) :: List.remove_assoc s t'.inputs }
                      in
                      add_proc t' s
                        (Term.Msg (kk, "val", [ Term.Elit (Term.Lint v) ]))
                  | _ -> t'
                else { t' with outs = (s, l, vs') :: t'.outs }
              else push t' s (Amsg (Term.Plain x, l, vs'))
            in
            Some (Eship_msg (site, s, x), t')
        | Aobj (Term.Located (s, x), ms) ->
            let t' = remove_atom t k in
            let ms' = List.map (translate_method ~from_:site ~to_:s) ms in
            Some (Eship_obj (site, s, x), push t' s (Aobj (Term.Plain x, ms')))
        | Amsg _ | Aobj _ | Ainst _ -> None)
      t.atoms
  in
  let fetches =
    List.filter_map
      (fun (k, site, a) ->
        match a with
        | Ainst (Term.Clocated (s, _x), _) when not (String.equal s site) -> (
            (* reuse the deterministic fetch implementation by isolating
               this atom as the only fetchable one *)
            match
              step { t with atoms = [ List.find (fun (k', _, _) -> k' = k) t.atoms ] }
            with
            | Some (ev, t_only) ->
                (* merge: t_only contains the copied defs + new atom *)
                let others =
                  List.filter (fun (k', _, _) -> k' <> k) t.atoms
                in
                Some (ev, { t_only with atoms = others @ t_only.atoms })
            | None -> None)
        | Ainst _ | Amsg _ | Aobj _ -> None)
      t.atoms
  in
  comms @ insts @ ships @ fetches

let quiescent t = Option.is_none (step t)

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
