exception Search_exhausted of int

type outcome = (string * string * string) list

let render_value v = Format.asprintf "%a" Network.pp_value v

(* Channel identities in rendered values are fresh-name dependent
   ("c$17"), so two interleavings of the same program can render the
   same observable differently.  Observable outputs in practice are
   base values; channel mentions are canonicalized to "#chan". *)
let canon_value v =
  match v with
  | Network.Vid _ -> "#chan"
  | Network.Vint _ | Network.Vbool _ | Network.Vstr _ -> render_value v

let outcome_of_net net : outcome =
  List.sort compare
    (List.map
       (fun (site, label, vs) ->
         (site, label, String.concat "," (List.map canon_value vs)))
       (Network.outputs net))

(* The state key for duplicate pruning: the whole state ({!Network.key})
   plus its outputs as outcomes compare them.  Equal keys mean equal
   futures and equal outcomes, so pruning drops nothing; two branches
   that created fresh names in different orders get different keys,
   which costs only time. *)
let signature net =
  Network.key net
  ^ "##"
  ^ String.concat ";"
      (List.map
         (fun (s, l, vs) ->
           s ^ "|" ^ l ^ "|" ^ String.concat "," (List.map canon_value vs))
         (Network.outputs net))

let explore ?(max_states = 50_000) net =
  let seen = Hashtbl.create 1024 in
  let results = Hashtbl.create 64 in
  let explored = ref 0 in
  let rec go net =
    let key = signature net in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr explored;
      if !explored > max_states then raise (Search_exhausted max_states);
      match Network.all_steps net with
      | [] -> Hashtbl.replace results (outcome_of_net net) ()
      | steps -> List.iter (fun (_, net') -> go net') steps
    end
  in
  go net;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) results [])

let outcomes_of_net ?max_states net = explore ?max_states net

let outcomes ?max_states ?inputs prog =
  let loaded = Interp.load ?inputs prog in
  explore ?max_states loaded.Interp.net

let may_equivalent ?max_states p1 p2 =
  outcomes ?max_states p1 = outcomes ?max_states p2

let deterministic ?max_states prog =
  match outcomes ?max_states prog with [ _ ] | [] -> true | _ -> false

let runtime_outcome_admissible ?max_states prog observed =
  let obs = List.sort compare observed in
  List.mem obs (outcomes ?max_states prog)

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf "{%s}"
    (String.concat "; "
       (List.map (fun (s, l, v) -> Printf.sprintf "%s:%s[%s]" s l v) o))
