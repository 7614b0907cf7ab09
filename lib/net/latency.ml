type t = {
  name : string;
  latency_ns : int;
  bytes_per_ns : float;
  per_packet_ns : int;
}

(* 1 Gb/s = 0.125 bytes/ns; 100 Mb/s = 0.0125 bytes/ns. *)
let myrinet =
  { name = "myrinet-1g"; latency_ns = 9_000; bytes_per_ns = 0.125;
    per_packet_ns = 1_500 }

let fast_ethernet =
  { name = "fast-ethernet-100m"; latency_ns = 70_000; bytes_per_ns = 0.0125;
    per_packet_ns = 4_000 }

let shared_memory =
  { name = "shared-memory"; latency_ns = 300; bytes_per_ns = 8.0;
    per_packet_ns = 100 }

(* 10 Mb/s = 0.00125 bytes/ns; 5 ms one-way.  A long-haul link for the
   chaos scenarios: the regime where loss and retransmission dominate,
   which the cluster fabrics above never enter. *)
let wan =
  { name = "wan-10m"; latency_ns = 5_000_000; bytes_per_ns = 0.00125;
    per_packet_ns = 10_000 }

let custom ~name ~latency_ns ~bytes_per_ns ~per_packet_ns =
  { name; latency_ns; bytes_per_ns; per_packet_ns }

let transfer_ns t ~bytes =
  t.latency_ns + t.per_packet_ns
  + int_of_float (ceil (float_of_int bytes /. t.bytes_per_ns))

(* [per_packet_ns] is charged once per *frame*: coalescing n packets
   into one batch frame saves the fixed software overhead of the n-1
   frames that were never sent.  (The bandwidth term is unchanged — the
   payload bytes still cross the link.) *)
let coalesce_saved_ns t ~packets =
  if packets <= 1 then 0 else (packets - 1) * (t.per_packet_ns + t.latency_ns)

let pp ppf t =
  Format.fprintf ppf "%s(lat=%dns bw=%.3fB/ns)" t.name t.latency_ns
    t.bytes_per_ns
