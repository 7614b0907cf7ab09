(** Link cost models for the simulated cluster (paper Fig. 1).

    The paper's test-bed is four dual-processor PCs on a 1 Gb/s Myrinet
    switch, each also holding a 100 Mb/s Fast Ethernet uplink; sites on
    the same node interact through shared memory.  These models expose
    exactly the cost hierarchy the paper's design arguments rely on
    (shared memory ≪ giga-switch ≪ ethernet), in simulated nanoseconds. *)

type t = {
  name : string;
  latency_ns : int;        (** one-way, first byte *)
  bytes_per_ns : float;    (** bandwidth *)
  per_packet_ns : int;     (** fixed send/receive software overhead *)
}

val myrinet : t
(** ≈9 µs one-way latency, 1 Gb/s. *)

val fast_ethernet : t
(** ≈70 µs one-way latency, 100 Mb/s. *)

val shared_memory : t
(** ≈0.3 µs, effectively infinite bandwidth: a pointer exchange. *)

val wan : t
(** ≈5 ms one-way, 10 Mb/s: a long-haul link for the chaos/fault
    scenarios, far outside the paper's cluster fabric. *)

val custom : name:string -> latency_ns:int -> bytes_per_ns:float ->
  per_packet_ns:int -> t

val transfer_ns : t -> bytes:int -> int
(** Total one-way transfer time of a packet of the given size. *)

val coalesce_saved_ns : t -> packets:int -> int
(** Fixed overhead (per-frame software cost + link latency) a batch of
    [packets] saves over sending them as separate frames: the modeled
    upside of transmit coalescing, reported by bench E16. *)

val pp : Format.formatter -> t -> unit
