(* Unit and property tests for the support substrate. *)

open Tyco_support

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Dq                                                                  *)

let dq_ring_wrap () =
  let d = Dq.create ~capacity:2 () in
  for i = 1 to 5 do
    Dq.push_back d i
  done;
  check (Alcotest.list Alcotest.int) "grown" [ 1; 2; 3; 4; 5 ] (Dq.to_list d);
  check (Alcotest.option Alcotest.int) "front" (Some 1) (Dq.pop_front d);
  check (Alcotest.option Alcotest.int) "back" (Some 5) (Dq.pop_back d);
  Dq.push_front d 0;
  check (Alcotest.list Alcotest.int) "push_front" [ 0; 2; 3; 4 ] (Dq.to_list d)

let dq_clear () =
  let d = Dq.of_list [ 1; 2; 3 ] in
  Dq.clear d;
  check Alcotest.bool "empty" true (Dq.is_empty d);
  Dq.push_back d 7;
  check (Alcotest.list Alcotest.int) "reusable" [ 7 ] (Dq.to_list d)

(* Small capacities (1–5 round up to 1, 2, 4, 4 and 8) make a few
   operations wrap the masked index and grow the ring while its head is
   not at slot 0; [of_list] and [clear] start and restart the deque from
   other states. *)
let dq_model_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dq = list deque model" ~count:500
       QCheck2.Gen.(
         triple (int_range 1 5)
           (option (small_list small_nat))
           (list (pair (int_range 0 5) small_nat)))
       (fun (capacity, init, ops) ->
         let d, model =
           match init with
           | None -> (Dq.create ~capacity (), ref [])
           | Some xs -> (Dq.of_list xs, ref xs)
         in
         let pop_front () =
           match !model with
           | [] -> Dq.pop_front d = None
           | m :: rest ->
               model := rest;
               Dq.pop_front_exn d = m
         in
         let pop_back () =
           match List.rev !model with
           | [] -> Dq.pop_back d = None
           | m :: rest ->
               model := List.rev rest;
               Dq.pop_back d = Some m
         in
         List.for_all
           (fun (op, x) ->
             (match op with
             | 0 ->
                 Dq.push_back d x;
                 model := !model @ [ x ];
                 true
             | 1 ->
                 Dq.push_front d x;
                 model := x :: !model;
                 true
             | 2 -> pop_front ()
             | 3 -> pop_back ()
             | 4 -> Dq.peek_front d = List.nth_opt !model 0
             | _ ->
                 if x mod 4 = 0 then begin
                   Dq.clear d;
                   model := []
                 end;
                 true)
             && Dq.length d = List.length !model
             && Dq.is_empty d = (!model = [])
             && Dq.to_list d = !model)
           ops))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let wire_roundtrip_ints =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire zint roundtrip" ~count:1000 QCheck2.Gen.int
       (fun n ->
         let enc = Wire.encoder () in
         Wire.zint enc n;
         let dec = Wire.decoder (Wire.to_string enc) in
         Wire.read_zint dec = n && Wire.at_end dec))

let wire_roundtrip_varint =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire varint roundtrip" ~count:1000
       QCheck2.Gen.(map abs int)
       (fun n ->
         let enc = Wire.encoder () in
         Wire.varint enc n;
         Wire.read_varint (Wire.decoder (Wire.to_string enc)) = n))

let wire_roundtrip_string =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire string roundtrip" ~count:500
       QCheck2.Gen.string (fun s ->
         let enc = Wire.encoder () in
         Wire.string enc s;
         Wire.read_string (Wire.decoder (Wire.to_string enc)) = s))

let wire_roundtrip_float =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire float roundtrip" ~count:500
       QCheck2.Gen.float (fun f ->
         let enc = Wire.encoder () in
         Wire.float enc f;
         let f' = Wire.read_float (Wire.decoder (Wire.to_string enc)) in
         Int64.bits_of_float f = Int64.bits_of_float f'))

let wire_roundtrip_list =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wire list+option+pair roundtrip" ~count:300
       QCheck2.Gen.(list (pair (option small_nat) bool))
       (fun xs ->
         let enc = Wire.encoder () in
         Wire.list enc
           (fun enc v -> Wire.pair enc (fun e o -> Wire.option e Wire.varint o) Wire.bool v)
           xs;
         let dec = Wire.decoder (Wire.to_string enc) in
         let xs' =
           Wire.read_list dec (fun d ->
               Wire.read_pair d
                 (fun d -> Wire.read_option d Wire.read_varint)
                 Wire.read_bool)
         in
         xs = xs'))

let wire_malformed () =
  let raises f =
    match f () with
    | exception Wire.Malformed _ -> true
    | _ -> false
  in
  check Alcotest.bool "truncated string" true
    (raises (fun () -> Wire.read_string (Wire.decoder "\x05ab")));
  check Alcotest.bool "truncated varint" true
    (raises (fun () -> Wire.read_varint (Wire.decoder "\x80")));
  check Alcotest.bool "bad bool" true
    (raises (fun () -> Wire.read_bool (Wire.decoder "\x07")));
  check Alcotest.bool "list length lies" true
    (raises (fun () -> Wire.read_list (Wire.decoder "\xff\x01") Wire.read_u8))

let wire_varint_negative () =
  check Alcotest.bool "negative rejected" true
    (match Wire.varint (Wire.encoder ()) (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"prng int within bounds" ~count:500
       QCheck2.Gen.(pair int (int_range 1 10_000))
       (fun (seed, bound) ->
         let g = Prng.create seed in
         let v = Prng.int g bound in
         v >= 0 && v < bound))

let prng_shuffle_permutation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"shuffle is a permutation" ~count:300
       QCheck2.Gen.(pair int (small_list small_nat))
       (fun (seed, xs) ->
         let g = Prng.create seed in
         List.sort compare (Prng.shuffle g xs) = List.sort compare xs))

let prng_split_independent () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  let a = Prng.int g 1000 and b = Prng.int h 1000 in
  (* the two streams should not track each other *)
  let diffs = ref (if a <> b then 1 else 0) in
  for _ = 1 to 50 do
    if Prng.int g 1000 <> Prng.int h 1000 then incr diffs
  done;
  check Alcotest.bool "streams diverge" true (!diffs > 10)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats_counters () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  check Alcotest.int "value" 5 (Stats.Counter.value c);
  check Alcotest.bool "idempotent name" true (Stats.counter s "x" == c);
  Stats.reset s;
  check Alcotest.int "reset" 0 (Stats.Counter.value c)

let stats_percentiles () =
  let s = Stats.create () in
  let d = Stats.dist s "lat" in
  for i = 1 to 100 do
    Stats.Dist.add d (float_of_int i)
  done;
  (* linear interpolation between closest ranks: p50 of 1..100 sits
     halfway between the 50th and 51st samples *)
  check (Alcotest.float 0.01) "p50" 50.5 (Stats.Dist.percentile d 0.5);
  check (Alcotest.float 0.01) "p95" 95.05 (Stats.Dist.percentile d 0.95);
  check (Alcotest.float 0.01) "p99" 99.01 (Stats.Dist.percentile d 0.99);
  check (Alcotest.float 0.01) "p999" 99.901 (Stats.Dist.percentile d 0.999);
  check (Alcotest.float 0.01) "p0 is min" 1.0 (Stats.Dist.percentile d 0.);
  check (Alcotest.float 0.01) "p100 is max" 100.0 (Stats.Dist.percentile d 1.);
  check (Alcotest.float 0.01) "mean" 50.5 (Stats.Dist.mean d);
  check (Alcotest.float 0.01) "min" 1.0 (Stats.Dist.min d);
  check (Alcotest.float 0.01) "max" 100.0 (Stats.Dist.max d)

let stats_absorb () =
  let s = Stats.create () in
  let a = Stats.dist s "a" and b = Stats.dist s "b" in
  for i = 1 to 50 do
    Stats.Dist.add a (float_of_int i)
  done;
  for i = 51 to 100 do
    Stats.Dist.add b (float_of_int i)
  done;
  Stats.Dist.absorb a b;
  check Alcotest.int "merged count" 100 (Stats.Dist.count a);
  check (Alcotest.float 0.01) "merged mean" 50.5 (Stats.Dist.mean a);
  check (Alcotest.float 0.01) "merged min" 1.0 (Stats.Dist.min a);
  check (Alcotest.float 0.01) "merged max" 100.0 (Stats.Dist.max a);
  check (Alcotest.float 0.01) "merged p50" 50.5 (Stats.Dist.percentile a 0.5);
  (* the absorbed side is unchanged *)
  check Alcotest.int "source count" 50 (Stats.Dist.count b);
  check (Alcotest.float 0.01) "source min" 51.0 (Stats.Dist.min b)

(* ------------------------------------------------------------------ *)
(* Metrics: the export of a finished run's Stats registry              *)

(* Registries merge as the engines' shards and nodes do after the join
   (counters sum, distributions absorb, sources unchanged), and the
   merged registry exports as Prometheus text and one JSON line. *)
let metrics_registry () =
  let mx = Stats.create () in
  let c = Stats.counter mx "packets" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Stats.Counter.add (Stats.counter mx "ring_hiwater") 7;
  let h = Stats.dist mx "lat_ns" in
  Stats.Dist.add_int h 100;
  Stats.Dist.add_int h 200;
  ignore (Stats.dist mx "never_sampled");
  check Alcotest.int "value by name" 5 (Metrics.value mx "packets");
  check Alcotest.int "unregistered reads 0" 0 (Metrics.value mx "nope");
  check Alcotest.bool "reading does not register" true
    (List.for_all
       (fun c -> Stats.Counter.name c <> "nope")
       (Stats.counters mx));
  let my = Stats.create () in
  Stats.Counter.add (Stats.counter my "packets") 10;
  Stats.Counter.add (Stats.counter my "ring_hiwater") 5;
  Stats.Dist.add_int (Stats.dist my "lat_ns") 300;
  let into = Stats.create () in
  Stats.merge_into ~into mx;
  Stats.merge_into ~into my;
  check Alcotest.int "merged counter" 15 (Metrics.value into "packets");
  check Alcotest.int "merged high-waters sum" 12
    (Metrics.value into "ring_hiwater");
  let lat = Stats.dist into "lat_ns" in
  check Alcotest.int "merged distribution count" 3 (Stats.Dist.count lat);
  check (Alcotest.float 1e-9) "merged distribution max" 300.
    (Stats.Dist.max lat);
  check Alcotest.int "sources unchanged" 5 (Metrics.value mx "packets");
  check Alcotest.int "source distribution unchanged" 2
    (Stats.Dist.count (Stats.dist mx "lat_ns"));
  check
    Alcotest.(list string)
    "counters in registration order, first registry first"
    [ "packets"; "ring_hiwater" ]
    (List.map Stats.Counter.name (Stats.counters into));
  let prom = Metrics.to_prom into in
  let has hay sub =
    let nh = String.length hay and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub hay i nn = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "prom counter" true (has prom "tyco_packets 15");
  check Alcotest.bool "prom counter type" true
    (has prom "# TYPE tyco_ring_hiwater counter");
  check Alcotest.bool "prom quantile" true
    (has prom "tyco_lat_ns{quantile=\"0.999\"}");
  check Alcotest.bool "prom count" true (has prom "tyco_lat_ns_count 3");
  check Alcotest.bool "prom empty summary" true
    (has prom "tyco_never_sampled_count 0");
  check Alcotest.bool "prom carries no instance label" false
    (has prom "instance");
  let json = Metrics.to_json ~extra:[ ("kind", "\"final\"") ] into in
  check Alcotest.bool "json extra leads" true
    (String.length json > 16 && String.sub json 0 16 = "{\"kind\":\"final\",");
  check Alcotest.bool "json counter" true (has json "\"packets\":15");
  check Alcotest.bool "json percentile" true (has json "\"p999\":");
  check Alcotest.bool "json empty distribution" true
    (has json "\"never_sampled\":null")

(* What replaced the disabled registry: nothing is switched off, and a
   registry nobody counted in exports nothing.  Merging it changes no
   registry, and merging into it copies the source. *)
let metrics_disabled_dummies () =
  let empty = Stats.create () in
  check Alcotest.string "empty json" "{}" (Metrics.to_json empty);
  check Alcotest.string "empty json keeps extra" "{\"kind\":\"final\"}"
    (Metrics.to_json ~extra:[ ("kind", "\"final\"") ] empty);
  check Alcotest.string "empty prom" "" (Metrics.to_prom empty);
  check Alcotest.int "empty value" 0 (Metrics.value empty "n");
  let live = Stats.create () in
  Stats.Counter.add (Stats.counter live "n") 3;
  Stats.merge_into ~into:live (Stats.create ());
  check Alcotest.int "merging an empty registry: unchanged" 3
    (Metrics.value live "n");
  check Alcotest.int "still one counter" 1 (List.length (Stats.counters live));
  let copy = Stats.create () in
  Stats.merge_into ~into:copy live;
  check Alcotest.string "merging into an empty registry copies"
    (Metrics.to_json live) (Metrics.to_json copy);
  check Alcotest.int "source unchanged" 3 (Metrics.value live "n")

let stats_empty_percentile () =
  let s = Stats.create () in
  let d = Stats.dist s "empty" in
  check Alcotest.bool "raises" true
    (match Stats.Dist.percentile d 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "summary_opt total" true
    (Stats.Dist.summary_opt d = None)

(* Past the reservoir cap: n/sum/min/max stay exact (streamed), the
   retained sample set is bounded, and percentiles remain sane
   estimates. *)
let stats_reservoir () =
  let s = Stats.create () in
  let d = Stats.dist s "big" in
  let n = 100_000 in
  for i = 1 to n do
    Stats.Dist.add d (float_of_int i)
  done;
  check Alcotest.int "exact count" n (Stats.Dist.count d);
  check (Alcotest.float 0.01) "exact mean"
    (float_of_int (n + 1) /. 2.)
    (Stats.Dist.mean d);
  check (Alcotest.float 0.01) "exact min" 1.0 (Stats.Dist.min d);
  check (Alcotest.float 0.01) "exact max" (float_of_int n) (Stats.Dist.max d);
  check Alcotest.bool "retention bounded" true
    (Array.length (Stats.Dist.samples d) <= 8192);
  let p50 = Stats.Dist.percentile d 0.5 in
  check Alcotest.bool "p50 estimated from reservoir" true
    (p50 > float_of_int n *. 0.4 && p50 < float_of_int n *. 0.6)

(* Thread lengths: small integers are counted, not sampled, so 100k of
   them keep an exact p95 where a reservoir would estimate it. *)
let stats_small_ints_exact () =
  let s = Stats.create () in
  let d = Stats.dist s "thread_len" in
  let n = 100_000 in
  (* i mod 50 for i = 0..n-1: each of 0..49 appears 2000 times *)
  for i = 0 to n - 1 do
    Stats.Dist.add_int d (i mod 50)
  done;
  check Alcotest.int "count" n (Stats.Dist.count d);
  check (Alcotest.float 1e-9) "exact mean" 24.5 (Stats.Dist.mean d);
  (* rank 94999.05: both neighbours are 47 *)
  check (Alcotest.float 1e-9) "exact p95" 47.0 (Stats.Dist.percentile d 0.95);
  check (Alcotest.float 1e-9) "exact p50" 24.5 (Stats.Dist.percentile d 0.5);
  check Alcotest.int "every value retained" n
    (Array.length (Stats.Dist.samples d));
  (* small values mixed with a large tail: the tail overflows the
     reservoir; count, mean and the ranks of the small values stay
     exact *)
  let m = Stats.dist s "mixed" in
  let large = 3 * Stats.Dist.reservoir_cap in
  let smalls = Array.init n (fun i -> i mod 64) in
  Array.iter (Stats.Dist.add_int m) smalls;
  for i = 1 to large do
    Stats.Dist.add_int m (1000 + i)
  done;
  let total = n + large in
  check Alcotest.int "mixed count" total (Stats.Dist.count m);
  let sum =
    Array.fold_left ( + ) 0 smalls + (1000 * large) + (large * (large + 1) / 2)
  in
  check (Alcotest.float 1e-6) "mixed exact mean"
    (float_of_int sum /. float_of_int total)
    (Stats.Dist.mean m);
  check (Alcotest.float 0.) "mixed min" 0. (Stats.Dist.min m);
  check (Alcotest.float 0.) "mixed max"
    (float_of_int (1000 + large))
    (Stats.Dist.max m);
  Array.sort compare smalls;
  let h = 0.5 *. float_of_int (total - 1) in
  let i = int_of_float h in
  let lo = float_of_int smalls.(i) and hi = float_of_int smalls.(i + 1) in
  check (Alcotest.float 1e-9) "mixed exact p50"
    (lo +. ((h -. float_of_int i) *. (hi -. lo)))
    (Stats.Dist.percentile m 0.5);
  check Alcotest.int "retained: every small value and a full reservoir"
    (n + Stats.Dist.reservoir_cap)
    (Array.length (Stats.Dist.samples m))

let stats_reservoir_deterministic () =
  let fill () =
    let s = Stats.create () in
    let d = Stats.dist s "big" in
    for i = 1 to 50_000 do
      Stats.Dist.add d (float_of_int i)
    done;
    Stats.Dist.samples d
  in
  check Alcotest.bool "same retained samples across runs" true
    (fill () = fill ())

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let heap_sorted_drain =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"heap drains sorted" ~count:300
       QCheck2.Gen.(list small_nat)
       (fun keys ->
         let h = Heap.create () in
         List.iter (fun k -> Heap.push h k k) keys;
         let rec drain acc =
           match Heap.pop h with
           | None -> List.rev acc
           | Some (k, _) -> drain (k :: acc)
         in
         drain [] = List.sort compare keys))

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 5 v) [ "a"; "b"; "c" ];
  Heap.push h 1 "first";
  let order = List.init 4 (fun _ -> snd (Option.get (Heap.pop h))) in
  check (Alcotest.list Alcotest.string) "stable ties"
    [ "first"; "a"; "b"; "c" ] order

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let vec_basic () =
  let v = Vec.create () in
  check Alcotest.int "idx0" 0 (Vec.push v "a");
  check Alcotest.int "idx1" 1 (Vec.push v "b");
  check Alcotest.string "get" "b" (Vec.get v 1);
  Vec.set v 0 "z";
  check (Alcotest.list Alcotest.string) "list" [ "z"; "b" ] (Vec.to_list v);
  check Alcotest.bool "oob" true
    (match Vec.get v 5 with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Netref                                                              *)

let netref_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"netref wire roundtrip" ~count:300
       QCheck2.Gen.(triple small_nat small_nat bool)
       (fun (h, s, is_class) ->
         let r =
           Netref.make
             ~kind:(if is_class then Netref.Class else Netref.Channel)
             ~heap_id:h ~site_id:s ~ip:(h + s)
         in
         let enc = Wire.encoder () in
         Netref.encode enc r;
         Netref.equal r (Netref.decode (Wire.decoder (Wire.to_string enc)))))

let tests =
  [ ("dq ring wrap+grow", `Quick, dq_ring_wrap);
    ("dq clear", `Quick, dq_clear);
    dq_model_test;
    wire_roundtrip_ints;
    wire_roundtrip_varint;
    wire_roundtrip_string;
    wire_roundtrip_float;
    wire_roundtrip_list;
    ("wire malformed inputs", `Quick, wire_malformed);
    ("wire varint negative", `Quick, wire_varint_negative);
    ("prng deterministic", `Quick, prng_deterministic);
    prng_bounds;
    prng_shuffle_permutation;
    ("prng split independence", `Quick, prng_split_independent);
    ("stats counters", `Quick, stats_counters);
    ("stats percentiles", `Quick, stats_percentiles);
    ("stats absorb", `Quick, stats_absorb);
    ("metrics registry", `Quick, metrics_registry);
    ("metrics disabled dummies", `Quick, metrics_disabled_dummies);
    ("stats empty percentile", `Quick, stats_empty_percentile);
    ("stats reservoir bounded+exact", `Quick, stats_reservoir);
    ("stats reservoir deterministic", `Quick, stats_reservoir_deterministic);
    heap_sorted_drain;
    ("heap fifo ties", `Quick, heap_fifo_ties);
    ("vec basic", `Quick, vec_basic);
    netref_roundtrip;
    ("stats small integers exact", `Quick, stats_small_ints_exact) ]
