(** Communication cost model, calibrated to the paper's §4.2 measurements.

    The paper reports, for DECstation-5000/240s on a 100 Mbps ATM LAN with
    the AAL3/4 adaptation-layer protocol:

    - minimum round trip (blocking receive): 500 µs, of which 80 µs is the
      kernel send, 80 µs the kernel receive (per side), and the remaining
      180 µs "divided between wire time, interrupt processing and resuming
      the processor that blocked in receive";
    - round trip with SIGIO handlers on both ends: 670 µs (so a handler
      delivery costs ~85 µs more than waking a blocked receiver);
    - remote lock acquisition: 827 µs (manager was last holder) and
      1149 µs (one forwarding hop);
    - 8-processor barrier: 2186 µs;
    - remote fault fetching a 4096-byte page: 2792 µs.

    The decomposition used here (all CPU values; wire time is separate):

    {v
      one-way, blocked receiver  = send(80) + wire(10)
                                 + interrupt(40) + resume(40) + recv(80)
                                 = 250 µs  →  round trip 500 µs
      one-way, handler receiver  = send(80) + wire(10)
                                 + interrupt(40) + sigio(125) + recv(80)
                                 = 335 µs  →  round trip 670 µs
    v}

    Page transfers additionally pay per-byte costs: the Fore interface does
    {e programmed I/O}, so the host CPU touches every byte on both send and
    receive, besides the 0.08 µs/byte wire occupancy of a 100 Mbps link.

    UDP/IP pays extra protocol-stack CPU per message relative to AAL3/4
    (Figure 8: Water rises from 15.0 s to 17.5 s on the same wire).  The
    10 Mbps Ethernet is additionally a shared medium: one frame in flight
    cluster-wide, which is what saturates under Water (27.5 s). *)

open Tmk_sim

(** Transmission medium. *)
type network =
  | Atm  (** 100 Mbps point-to-point switch: per-source links transmit in parallel *)
  | Ethernet  (** 10 Mbps shared bus: a single frame in flight cluster-wide *)

(** Message protocol. *)
type protocol =
  | Aal34  (** connection-oriented ATM adaptation layer, bypassing TCP/IP *)
  | Udp  (** UDP/IP socket path *)

type t = {
  network : network;
  protocol : protocol;
  send_cpu : Vtime.t;  (** kernel send path, per message *)
  recv_cpu : Vtime.t;  (** kernel receive path, per message *)
  per_byte_send_cpu : Vtime.t;  (** programmed-I/O cost per payload byte, send side *)
  per_byte_recv_cpu : Vtime.t;  (** programmed-I/O cost per payload byte, receive side *)
  interrupt_cpu : Vtime.t;  (** end-of-message interrupt processing *)
  resume_cpu : Vtime.t;  (** waking a process blocked in receive *)
  sigio_dispatch_cpu : Vtime.t;  (** signal delivery + handler entry/exit (fresh only) *)
  wire_latency : Vtime.t;  (** propagation plus switch latency *)
  wire_ns_per_byte : int;  (** medium occupancy per frame byte *)
  header_bytes : int;  (** protocol header added to every message *)
  min_frame_bytes : int;  (** short frames are padded to this size *)
  shared_medium : bool;  (** true: one frame in flight cluster-wide *)
  busy_access_delay : Vtime.t;
      (** extra medium-access delay paid by a frame that finds the medium
          busy: CSMA/CD deference, collisions and binary exponential
          backoff waste air time on a loaded Ethernet (zero on the
          point-to-point ATM switch) *)
  retransmit_timeout : Vtime.t;  (** user-level protocol timer, first attempt *)
  retransmit_backoff_cap : Vtime.t;
      (** ceiling of the exponential backoff: successive retransmission
          timers double from [retransmit_timeout] up to this cap *)
  max_retransmits : int;
      (** retry budget per message; once exhausted the transport raises
          a per-peer suspicion ({!Transport.on_suspect}) instead of
          retransmitting forever *)
}

(** [atm_aal34] — the paper's primary configuration. *)
val atm_aal34 : t

(** [atm_udp] — UDP/IP over the ATM LAN. *)
val atm_udp : t

(** [ethernet_udp] — UDP/IP over the 10 Mbps Ethernet. *)
val ethernet_udp : t

(** [retransmit_delay t ~attempt] — the timer armed after transmission
    number [attempt] (1-based): [retransmit_timeout] doubled per further
    attempt, capped at [retransmit_backoff_cap]. *)
val retransmit_delay : t -> attempt:int -> Vtime.t

(** [frame_bytes t payload] is the on-wire frame size for a [payload]-byte
    message: header plus padding to the minimum frame. *)
val frame_bytes : t -> int -> int

(** [send_cost t payload] is the sender-side CPU per message. *)
val send_cost : t -> int -> Vtime.t

(** [recv_cost t payload] is the receiver-side CPU per message, excluding
    delivery (interrupt/sigio/resume) costs. *)
val recv_cost : t -> int -> Vtime.t

(** [deliver_blocked_cpu t] is interrupt + resume: CPU consumed delivering
    to a process blocked in receive. *)
val deliver_blocked_cpu : t -> Vtime.t

(** [deliver_handler_cpu t ~fresh] is interrupt (+ signal dispatch when
    [fresh]) consumed delivering to the SIGIO handler. *)
val deliver_handler_cpu : t -> fresh:bool -> Vtime.t

(** [name t] is e.g. ["ATM-AAL3/4"]. *)
val name : t -> string
