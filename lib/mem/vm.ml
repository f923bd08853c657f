type prot = No_access | Read_only | Read_write
type access = Read | Write

exception Fault_loop of { page : int; kind : access }

type t = {
  frames : Bytes.t array;
      (* per-page backing store: [zero_frame] until the page is first
         written, installed or patched, then a private 4 KB frame *)
  prot : prot array;
  fast : Bytes.t;
      (* per-page "unchecked OK" level, while no access hook is
         installed: [readable] when the page is
         [Read_only], or [Read_write] on the zero frame; [writable] when
         it is [Read_write] with a private frame; [checked] otherwise.
         Loads at [readable] or above and stores at [writable] touch the
         frame directly, skipping the full [ensure] (range/prot check +
         hook dispatch).  Kept consistent by [refresh_fast] on every
         [set_prot] / [set_access_hook] and when a page gets its private
         frame. *)
  npages : int;
  mutable on_fault : access -> int -> unit;
  mutable on_access : (access -> int -> int -> unit) option;
}

let page_size = 4096
let page_shift = 12
let offset_mask = page_size - 1

(* The frame every never-written page shares.  It is never written: a
   page gets a private frame ([own_frame]) before its first store. *)
let zero_frame = Bytes.make page_size '\000'

(* Fast-path levels, in increasing order. *)
let checked = '\000'
let readable = '\001'
let writable = '\002'

let create ~pages () =
  if pages <= 0 then invalid_arg "Vm.create: pages must be positive";
  {
    frames = Array.make pages zero_frame;
    prot = Array.make pages Read_write;
    fast = Bytes.make pages readable;
    npages = pages;
    on_fault = (fun _ page -> failwith (Printf.sprintf "Vm: unhandled fault on page %d" page));
    on_access = None;
  }

let size_bytes t = t.npages * page_size

let refresh_fast t page =
  Bytes.unsafe_set t.fast page
    (if t.on_access <> None then checked
     else
       match t.prot.(page) with
       | No_access -> checked
       | Read_only -> readable
       | Read_write -> if t.frames.(page) == zero_frame then readable else writable)

let refresh_fast_all t =
  for page = 0 to t.npages - 1 do
    refresh_fast t page
  done

(* The page's private frame, allocated zero-filled on first need. *)
let own_frame t page =
  let frame = t.frames.(page) in
  if frame != zero_frame then frame
  else begin
    let frame = Bytes.make page_size '\000' in
    t.frames.(page) <- frame;
    refresh_fast t page;
    frame
  end

let set_fault_handler t f = t.on_fault <- f

let set_access_hook t f =
  t.on_access <- Some f;
  refresh_fast_all t

let prot t page = t.prot.(page)

let set_prot t page p =
  t.prot.(page) <- p;
  refresh_fast t page

let addr_of_page page = page * page_size

let check_range t addr width =
  if addr < 0 || addr + width > size_bytes t then
    invalid_arg (Printf.sprintf "Vm: address %d out of range" addr);
  if addr / page_size <> (addr + width - 1) / page_size then
    invalid_arg (Printf.sprintf "Vm: access at %d straddles a page boundary" addr)

(* Whether [page]'s protection admits an access of [kind]; a function of
   its own, not a closure in [ensure], so a checked access allocates
   nothing. *)
let allowed t page kind =
  match (t.prot.(page), kind) with
  | Read_write, _ -> true
  | Read_only, Read -> true
  | Read_only, Write | No_access, _ -> false

(* Fault-check an access; after the handler runs the protection must allow
   the retried access, otherwise the handler is broken. *)
let ensure t addr width kind =
  check_range t addr width;
  let page = addr / page_size in
  if not (allowed t page kind) then begin
    (* The handler may have to run more than once: on the real system a
       concurrently arriving write notice can re-invalidate the page
       between the handler's fix and the retried access. *)
    let rec retry attempts =
      t.on_fault kind page;
      if not (allowed t page kind) then
        if attempts >= 64 then raise (Fault_loop { page; kind }) else retry (attempts + 1)
    in
    retry 0
  end;
  match t.on_access with None -> () | Some f -> f kind addr width

(* The checked path of a store: fault-check it, then give the page a
   private frame to store into. *)
let ensure_write t addr width =
  ensure t addr width Write;
  ignore (own_frame t (addr lsr page_shift))

(* Fast-path admission: the access is entirely inside one page whose
   fast-path level is at least [level] ([readable] for a load, [writable]
   for a store).  [addr lsr page_shift] maps any negative address to a
   huge positive page (lsr is a logical shift), so the single
   [page < npages] compare also rejects addr < 0; the offset mask check
   rejects accesses that would straddle the page boundary (so an in-bounds
   fast access can never leave the page, and [page < npages] alone proves
   the whole access is in range).  Everything else falls through to
   [ensure], which raises the exact errors the checked path always
   raised. *)
let[@inline] fast_ok t addr width level =
  let page = addr lsr page_shift in
  page < t.npages
  && Bytes.unsafe_get t.fast page >= level
  && addr land offset_mask <= page_size - width

(* The frame holding [addr], once [fast_ok] or [ensure] has proved the
   address in range. *)
let[@inline] frame t addr = Array.unsafe_get t.frames (addr lsr page_shift)

(* Unchecked little-endian 8-byte loads and stores, for accesses that
   [fast_ok] or [ensure] has already kept inside one page: every frame is
   exactly [page_size] bytes, so the bounds check of
   [Bytes.get_int64_le] would only repeat that proof.  Each accessor
   makes its own admission test and inlines these, so no [int64] is boxed
   across a call boundary on the way to an [int] or [float]. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load64 t addr =
  let v = unsafe_get64 (frame t addr) (addr land offset_mask) in
  if Sys.big_endian then swap64 v else v

let[@inline] store64 t addr v =
  unsafe_set64 (frame t addr) (addr land offset_mask) (if Sys.big_endian then swap64 v else v)

let[@inline] read_int t addr =
  if not (fast_ok t addr 8 readable) then ensure t addr 8 Read;
  Int64.to_int (load64 t addr)

let[@inline] write_int t addr v =
  if not (fast_ok t addr 8 writable) then ensure_write t addr 8;
  store64 t addr (Int64.of_int v)

let[@inline] read_f64 t addr =
  if not (fast_ok t addr 8 readable) then ensure t addr 8 Read;
  Int64.float_of_bits (load64 t addr)

let[@inline] write_f64 t addr v =
  if not (fast_ok t addr 8 writable) then ensure_write t addr 8;
  store64 t addr (Int64.bits_of_float v)

let page_snapshot t page = Bytes.copy t.frames.(page)

(* Free page buffers, a stack in [free.(0 .. count - 1)].  A buffer is
   taken by [copy] and comes back through [release]; the array only grows,
   and a slot above [count] may still name a buffer someone took. *)
type pool = { mutable free : Bytes.t array; mutable count : int }

let create_pool () = { free = [||]; count = 0 }

let copy pool src =
  let buf =
    if pool.count = 0 then Bytes.create page_size
    else begin
      pool.count <- pool.count - 1;
      pool.free.(pool.count)
    end
  in
  Bytes.blit src 0 buf 0 page_size;
  buf

let snapshot pool t page = copy pool t.frames.(page)

let release pool buf =
  if Bytes.length buf <> page_size then invalid_arg "Vm.release: wrong page size";
  if pool.count = Array.length pool.free then begin
    let free = Array.make (max 8 (2 * pool.count)) buf in
    Array.blit pool.free 0 free 0 pool.count;
    pool.free <- free
  end;
  pool.free.(pool.count) <- buf;
  pool.count <- pool.count + 1

let install_page t page bytes =
  if Bytes.length bytes <> page_size then
    invalid_arg "Vm.install_page: wrong page size";
  Bytes.blit bytes 0 (own_frame t page) 0 page_size

let patch t page rle = Tmk_util.Rle.apply rle (own_frame t page)

(* The twin is compared with the live frame in place: [Rle.encode] copies
   out only the changed runs. *)
let diff_against t page ~twin = Tmk_util.Rle.encode ~old_:twin t.frames.(page)
