(** Software MMU: a paged address space with per-page protection.

    Substitutes for the [mmap]/[mprotect]/SIGSEGV machinery the real
    TreadMarks uses (§3.7).  Shared memory is split into 4096-byte pages,
    each in one of three states mirroring the hardware protections.  A page
    is backed by one shared, never-written zero frame until it is first
    written, installed or patched, and by a private frame from then on, so
    an address space costs memory only for the pages its node has touched.
    Every typed accessor checks the page's protection and, on
    a violation, invokes the registered fault handler — the analogue of the
    SIGSEGV handler — then retries the access.  The fault handler runs in
    the faulting process's context and may block (e.g. to fetch diffs from
    other processors) and change protections before returning.

    The accessors themselves model ordinary user-mode loads and stores and
    charge no simulated time; only the protocol activity that faults
    trigger costs time, exactly as on real hardware. *)

(** Page protection, as set by [mprotect] on the real system. *)
type prot = No_access | Read_only | Read_write

(** Kind of access that faulted. *)
type access = Read | Write

type t

(** [page_size] is 4096 bytes, the DECstation's virtual-memory page. *)
val page_size : int

(** [create ~pages] makes an address space of [pages] pages, zero-filled,
    all [Read_write] (the DSM sets initial protections itself), with a
    fault handler that raises.  [fast_path] (default [true]) lets the
    typed accessors skip the protection check on pages where it cannot
    fault (see {!section-fast_path}); pass [false] to force every access
    through the checked path. *)
val create : ?fast_path:bool -> pages:int -> unit -> t

(** [size_bytes t] — capacity. *)
val size_bytes : t -> int

(** [set_fault_handler t f] installs the SIGSEGV-handler analogue.  [f]
    must change the page's protection so the retried access succeeds.
    @raise Fault_loop if the access still faults after [f] returns. *)
val set_fault_handler : t -> (access -> int -> unit) -> unit

exception Fault_loop of { page : int; kind : access }

(** [set_access_hook t f] installs an observer called as [f kind addr width]
    after every typed access resolves (including any faults it triggered).
    The hook sees the accesses a hardware watchpoint would — one call per
    load or store — and is meant for checkers; it must not change
    protections.  Page-granularity operations ([snapshot], [patch],
    ...) are DSM-internal and do not report. *)
val set_access_hook : t -> (access -> int -> int -> unit) -> unit

(** [prot t page] / [set_prot t page p] — read and change protection.
    Charging the [mprotect] cost is the caller's business. *)
val prot : t -> int -> prot

val set_prot : t -> int -> prot -> unit

(** {2:fast_path Fast path}

    The typed accessors keep a per-page "unchecked OK" level.  With the
    fast path enabled and no access hook installed, a page is
    {e readable} when it is [Read_only], or [Read_write] and never
    written, installed or patched (still on the zero frame), and
    {e writable} when it is [Read_write] with its private frame.  A load
    wholly inside a readable or writable page, and a store wholly inside a
    writable one, cannot fault and has no observer, so it reads or writes
    the frame directly, skipping the protection check and hook dispatch.
    All other accesses — including out-of-range and straddling ones, and
    the first store to a page, which gives it its private frame — take the
    checked path.  The levels are maintained by [set_prot],
    [set_access_hook] and frame allocation; results are bit-identical with
    the fast path on or off. *)

(** [addr_of_page page] is [page * page_size]. *)
val addr_of_page : int -> int

(** {2 Typed accessors} — byte-addressed; 8-byte accesses must not cross a
    page boundary (the apps keep naturally-aligned data).

    @raise Invalid_argument on out-of-range or straddling accesses. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

(** [read_int]/[write_int] store an OCaml [int] in 8 bytes.  Once the
    page's fast-path bit is set they allocate nothing. *)
val read_int : t -> int -> int

val write_int : t -> int -> int -> unit

(** [read_f64]/[write_f64] store a [float] in 8 bytes (IEEE bits). *)
val read_f64 : t -> int -> float

val write_f64 : t -> int -> float -> unit

(** {2 Page-granularity operations for the DSM layer} — these bypass
    protection (the DSM manipulates pages it has deliberately protected),
    like kernel-assisted copies in the real system. *)

(** [page_snapshot t page] is a fresh copy of the page's 4096 bytes, for
    a caller that keeps it.  The DSM copies pages through a {!pool}. *)
val page_snapshot : t -> int -> Bytes.t

(** {3 Page copies}

    A page copy — a twin, or a page on its way to another processor — is
    a 4096-byte buffer from a [pool] of free ones, so a copy costs a blit,
    not an allocation.  A buffer has one owner at a time.  [snapshot] and
    [copy] hand it to the caller, who owns it until it passes it on; the
    copy's one consumer gives it back with [release] once it has read it,
    and must not touch it afterwards.  A copy that is never consumed (its
    message was dropped) is simply left to the GC.  A pool is not shared
    between domains. *)

type pool

(** [create_pool ()] — an empty pool; it grows to the largest number of
    buffers released and not yet taken again. *)
val create_pool : unit -> pool

(** [snapshot pool t page] — the page's 4096 bytes in a buffer from
    [pool], owned by the caller. *)
val snapshot : pool -> t -> int -> Bytes.t

(** [copy pool bytes] — the same for a 4096-byte buffer (a twin). *)
val copy : pool -> Bytes.t -> Bytes.t

(** [release pool bytes] — give a consumed copy back to [pool].
    @raise Invalid_argument when [bytes] is not 4096 bytes long. *)
val release : pool -> Bytes.t -> unit

(** [install_page t page bytes] overwrites the page's contents. *)
val install_page : t -> int -> Bytes.t -> unit

(** [patch t page rle] applies a diff to the page in place, bypassing
    protection. *)
val patch : t -> int -> Tmk_util.Rle.t -> unit

(** [diff_against t page ~twin] is the runlength encoding of the page's
    current contents against [twin]. *)
val diff_against : t -> int -> twin:Bytes.t -> Tmk_util.Rle.t
