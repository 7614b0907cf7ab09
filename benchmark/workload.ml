(* The five benchmark workloads.  Each is a seeded source-program
   generator plus the engine that runs it: the seed picks the constants
   in the generated program (start values, increments, payloads, item
   sizes, reply offsets) and the simulation seed; the engines only ever
   see the program text.  Every generator also states the output
   multiset its program must print, computed here in OCaml rather than
   taken from any engine, so the check does not trust the code under
   test.

   The total work of a program does not depend on the seed: loop
   lengths and call counts are fixed, SETI item sizes vary but come in
   pairs that sum to a constant, and every seeded value that travels in
   a packet stays in [64, 8192), where it encodes to two bytes.  A
   packet's size sets its modelled wire delay, and so the simulated
   engine's interleaving; with values of varying width the same
   workload ran about 8% slower on some seeds than on others. *)

module Cluster = Dityco.Cluster
module Output = Dityco.Output
module Simnet = Tyco_net.Simnet

type engine =
  | Sim  (** the deterministic simulated cluster, [Cluster] *)
  | Par of int  (** the domain-sharded engine, [Par_runner], this many domains *)
  | Tcp of int  (** real loopback sockets, [Tcp_runner], this many nodes *)

(* One generated program. *)
type program = {
  source : string;
  expected : Output.event list;  (** the multiset its run must print *)
  ops : int;  (** operations one run completes *)
}

type t = {
  name : string;
  engine : engine;
  config : Cluster.config;  (** [Sim] and [Par]; also the simulated cross-check *)
  placement : string -> int;  (** site name -> node *)
  full : program;  (** what the benchmark times *)
  reduced : program;
      (** the same shape at a size the reference interpreter finishes
          quickly: it checks the expected-output formula independently
          of every engine *)
}

let names = [ "vm_local"; "rpc_lease"; "burst_reliable"; "seti_par2"; "rpc_tcp2" ]

(* A seeded constant in [lo, hi). *)
let pick rng lo hi = lo + Random.State.int rng (hi - lo)

let printi site v = { Output.site; label = "printi"; args = [ Output.Oint v ] }

(* Sum over n = 1..r of n + off + b. *)
let rpc_sum ~r ~off ~b = (r * (r + 1) / 2) + (r * (off + b))

(* [clients] sites each make [rounds] synchronous calls to one server;
   each client prints the sum of its replies, offset by its id.

   With [~poller:i], client [i] does not print when its own calls are
   done but keeps asking the server how many calls are still
   outstanding, and prints once none are.  Tcp_runner needs that: its
   coordinator stops after three idle scans with nothing in flight, and
   a node decrements the in-flight count before it marks itself busy,
   so a scan can take a node that is handling a batch of replies for an
   idle one.  With every client printing as soon as it was done, 0.3%
   to 0.8% of TCP runs stopped early.  The poller keeps its node busy
   until the last call is served. *)
let rpc_program ?poller rng ~clients ~rounds =
  (* with at most 4000 rounds, arguments n + off stay in [101, 5000) and
     replies v + b in [101, 8000) *)
  let b = pick rng 0 3000 in
  let offs = List.init clients (fun _ -> pick rng 100 1000) in
  let client i off =
    let finish =
      if poller = Some i then
        "let l = svc!pending[] in if l == 0 then io!printi[acc] else Finish[acc]"
      else "io!printi[acc]"
    in
    Printf.sprintf
      {| site c%d { import svc from server in
           def Ping(n, acc) = if n == 0 then Finish[acc]
                              else let v = svc!ping[n + %d] in Ping[n - 1, acc + v]
           and Finish(acc) = %s
           in Ping[%d, %d] } |}
      i off finish rounds (i * 1_000_000_000)
  in
  let source =
    Printf.sprintf
      {| site server {
           def Serve(svc, left) =
             svc?{ ping(v, k) = (k![v + %d] | Serve[svc, left - 1]),
                   pending(k) = (k![left] | Serve[svc, left]) }
           in export new svc Serve[svc, %d] }
         %s |}
      b (clients * rounds)
      (String.concat "" (List.mapi client offs))
  in
  let expected =
    List.mapi
      (fun i off ->
        printi (Printf.sprintf "c%d" i) ((i * 1_000_000_000) + rpc_sum ~r:rounds ~off ~b))
      offs
  in
  { source; expected; ops = clients * rounds }

(* One site: a counter object driven through [bumps] synchronous
   increments, next to a [steps]-long tail-recursive loop. *)
let vm_local_program rng ~bumps ~steps =
  let a0 = pick rng 0 1000 and d = pick rng 1 10 and x = pick rng 1 10 in
  let source =
    Printf.sprintf
      {| def Counter(self, acc) =
           self?{ bump(d, k) = (k![acc + d] | Counter[self, acc + d]) }
         and Driver(c, n, last) =
           if n == 0 then io!printi[last]
           else new k (c!bump[%d, k] | k?(v) = Driver[c, n - 1, v])
         and Crunch(n, acc, k) = if n == 0 then k![acc] else Crunch[n - 1, acc + %d, k]
         in new c (Counter[c, %d] | Driver[c, %d, %d]
                   | new r (Crunch[%d, 0, r] | r?(v) = io!printi[v])) |}
      d x a0 bumps a0 steps
  in
  { source;
    expected = [ printi "main" (a0 + (bumps * d)); printi "main" (steps * x) ];
    ops = bumps + steps }

(* The E16 burst shape: per round, [burst] asynchronous 4-int [put]s to
   each of [fanout] sinks, then one synchronous [flush] per sink.  A
   sink prints the sum of its payloads when its last put arrives, so a
   lost or duplicated put changes (or suppresses) the line. *)
let burst_program rng ~rounds ~burst ~fanout =
  let a = pick rng 100 1000 and b = pick rng 100 1000 and c = pick rng 100 1000 in
  let per_sink = rounds * burst in
  let sink i =
    Printf.sprintf
      {| site sink%d {
           export new svc%d
           def Serve%d(self, n, s) =
             self?{ put(r, a, b, c) =
                      (if n + 1 == %d then io!printi[s + r + a + b + c] else nil)
                      | Serve%d[self, n + 1, s + r + a + b + c],
                    flush(k) = (k![n] | Serve%d[self, n, s]) }
           in Serve%d[svc%d, 0, 0] } |}
      i i i per_sink i i i i
  in
  let rec round_body i =
    if i = fanout then "Round[r - 1]"
    else
      Printf.sprintf "new k%d (%s svc%d!flush[k%d] | k%d?(v%d) = %s)" i
        (String.concat ""
           (List.init burst (fun _ ->
                Printf.sprintf "svc%d!put[r, %d, %d, %d] | " i a b c)))
        i i i i (round_body (i + 1))
  in
  let imports =
    String.concat " "
      (List.init fanout (fun i -> Printf.sprintf "import svc%d from sink%d in" i i))
  in
  let source =
    Printf.sprintf
      {| %s
         site client {
           %s
           def Round(r) = if r == 0 then io!printi[0] else %s
           in Round[%d] } |}
      (String.concat "" (List.init fanout sink))
      imports (round_body 0) rounds
  in
  let sink_sum = burst * ((rounds * (rounds + 1) / 2) + (rounds * (a + b + c))) in
  { source;
    expected =
      printi "client" 0
      :: List.init fanout (fun i -> printi (Printf.sprintf "sink%d" i) sink_sum);
    (* puts, flushes and flush replies *)
    ops = rounds * fanout * (burst + 2) }

(* The paper's SETI@home example scaled up: the master exports a work
   pool and a Worker class; each worker site fetches the class and
   pulls items until the pool says stop.  Item [left] (counting down
   from [items]) costs 2000 +/- w Crunch steps, with the sign
   alternating so consecutive items cancel and every seed does the same
   total work.  The master prints the sum of the results once every
   item is back; each stop prints the worker's id at the master (the
   fetched class keeps its lexical [io]). *)
let seti_program rng ~items ~workers ~base ~spread =
  (* results size * m stay below 8192 *)
  let p = pick rng 1 997 and q = pick rng 0 997 and m = pick rng 1 4 in
  let worker i =
    Printf.sprintf {| site w%d { import Worker from master in Worker[%d] } |} i
      (i + 1)
  in
  let source =
    Printf.sprintf
      {| site master {
           export new pool
           def Pool(self, left, todo, acc) =
             self?{ take(k) =
                      if left == 0 then (k!stop[] | Pool[self, left, todo, acc])
                      else (k!item[%d + (1 - 2 * ((left - 1) %% 2))
                                         * (((left - 1) / 2 * %d + %d) %% %d)]
                            | Pool[self, left - 1, todo, acc]),
                    done(x) =
                      (if todo == 1 then io!printi[acc + x] else nil)
                      | Pool[self, left, todo - 1, acc + x] }
           in (Pool[pool, %d, %d, 0]
               | export def Crunch(n, acc, k) =
                   if n == 0 then k![acc] else Crunch[n - 1, acc + %d, k]
                 and Worker(id) = new k (
                   pool!take[k]
                   | k?{ item(v) = new d (Crunch[v, 0, d] | d?(x) = (pool!done[x] | Worker[id])),
                         stop() = io!printi[id] })
                 in nil) }
         %s |}
      base p q spread items items m
      (String.concat "" (List.init workers worker))
  in
  { source;
    expected =
      printi "master" (m * base * items)
      :: List.init workers (fun i -> printi "master" (i + 1));
    ops = items }

(* The number at the end of a site name: 2 for "sink2". *)
let index name =
  let i = ref (String.length name) in
  while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do decr i done;
  int_of_string (String.sub name !i (String.length name - !i))

let make name ~seed =
  (* one stream per workload, so adding a constant to one generator
     leaves the others' programs unchanged *)
  let rng () = Random.State.make [| seed; Hashtbl.hash name |] in
  let base = { Cluster.default_config with Cluster.seed } in
  let both gen = (gen ~full:true (rng ()), gen ~full:false (rng ())) in
  (* servers and the burst client on node 0, the other sites over nodes
     1-3 *)
  let spread s = if s = "server" || s = "client" then 0 else 1 + (index s mod 3) in
  let engine, config, placement, (full, reduced) =
    match name with
    | "vm_local" ->
        ( Sim,
          { base with Cluster.nodes = 1 },
          (fun _ -> 0),
          both (fun ~full rng ->
              if full then vm_local_program rng ~bumps:2000 ~steps:20_000
              else vm_local_program rng ~bumps:20 ~steps:200) )
    | "rpc_lease" ->
        ( Sim,
          { base with Cluster.lease_ns = 200_000; lease_refresh_ns = 50_000 },
          spread,
          both (fun ~full rng ->
              rpc_program rng ~clients:4 ~rounds:(if full then 500 else 5)) )
    | "burst_reliable" ->
        ( Sim,
          { base with
            Cluster.reliable = true;
            faults = { Simnet.no_faults with Simnet.drop = 0.02; duplicate = 0.01 } },
          spread,
          both (fun ~full rng ->
              burst_program rng ~rounds:(if full then 60 else 2) ~burst:16 ~fanout:3) )
    | "seti_par2" ->
        ( Par 2,
          base,
          (fun s -> if s = "master" then 0 else (index s + 1) mod 4),
          both (fun ~full rng ->
              if full then seti_program rng ~items:128 ~workers:4 ~base:2000 ~spread:501
              else seti_program rng ~items:8 ~workers:4 ~base:20 ~spread:5) )
    | "rpc_tcp2" ->
        (* Tcp_runner places sites round-robin in source order (server,
           c0, c1, c2); the simulated cross-check places them the same
           way.  c1 shares node 0 with the server, so it is the poller. *)
        ( Tcp 2,
          { base with Cluster.nodes = 2 },
          (fun s -> if s = "server" then 0 else (index s + 1) mod 2),
          both (fun ~full rng ->
              rpc_program ~poller:1 rng ~clients:3 ~rounds:(if full then 4000 else 5)) )
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { name; engine; config; placement; full; reduced }

(* OCaml domains the engine runs work on (the calling domain only
   coordinates in the parallel and TCP engines). *)
let domains t = match t.engine with Sim -> 1 | Par d -> d | Tcp n -> n
