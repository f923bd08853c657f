module Json = Tmk_util.Json

type fault_kind = Read | Write

type t =
  | Lock_acquire of { lock : int; local : bool }
  | Lock_acquired of { lock : int; local : bool }
  | Lock_release of { lock : int; granted_to : int option }
  | Lock_queued of { lock : int; requester : int }
  | Lock_request_recv of { lock : int; requester : int }
  | Lock_forward of { lock : int; requester : int; target : int }
  | Lock_grant of { lock : int; requester : int; intervals : int; bytes : int }
  | Barrier_arrive of { id : int; epoch : int }
  | Barrier_release of { id : int; epoch : int }
  | Page_fault of { page : int; kind : fault_kind }
  | Page_fault_done of { page : int; kind : fault_kind }
  | Twin_create of { page : int }
  | Page_fetch of { page : int; from_ : int }
  | Page_invalidate of { page : int }
  | Diff_create of { page : int; bytes : int; proc : int; interval : int }
  | Diff_apply of { page : int; bytes : int; proc : int; interval : int }
  | Diff_fetch of { page : int; from_ : int; count : int }
  | Interval_close of { id : int; notices : int; vt : int array }
  | Interval_recv of { proc : int; id : int; notices : int; vt : int array }
  | Write_notice_recv of { page : int; proc : int; interval : int }
  | Frame_send of { src : int; dst : int; label : string; bytes : int; retrans : bool }
  | Frame_recv of { src : int; dst : int; label : string; bytes : int }
  | Frame_drop of { src : int; dst : int; label : string; bytes : int }
  | Frame_dup of { src : int; dst : int; label : string }
  | Frame_batch of { src : int; dst : int; label : string; parts : int }
  | Diff_cache of { page : int; hit : bool }
  | Gc_begin of { live : int }
  | Gc_end of { discarded : int }
  | Proc_crash
  | Peer_suspect of { dst : int; label : string; attempts : int }
  | Failover of { dead : int; epoch : int }
  | Recovery_done of { dead : int; locks : int; retries : int }
  | Diff_backup of { page : int; proc : int; interval : int; bytes : int; to_ : int }
  | Ts_sync of { ts : int }
  | Lease_expire of { page : int }
  | Quorum_read of { page : int; replies : int }
  | Quorum_write of { pages : int; acks : int }
  | Proc_finish

let fault_kind_name = function Read -> "read" | Write -> "write"

let name = function
  | Lock_acquire _ -> "lock-acquire"
  | Lock_acquired _ -> "lock-acquired"
  | Lock_release _ -> "lock-release"
  | Lock_queued _ -> "lock-queued"
  | Lock_request_recv _ -> "lock-request-recv"
  | Lock_forward _ -> "lock-forward"
  | Lock_grant _ -> "lock-grant"
  | Barrier_arrive _ -> "barrier-arrive"
  | Barrier_release _ -> "barrier-release"
  | Page_fault _ -> "page-fault"
  | Page_fault_done _ -> "page-fault-done"
  | Twin_create _ -> "twin-create"
  | Page_fetch _ -> "page-fetch"
  | Page_invalidate _ -> "page-invalidate"
  | Diff_create _ -> "diff-create"
  | Diff_apply _ -> "diff-apply"
  | Diff_fetch _ -> "diff-fetch"
  | Interval_close _ -> "interval-close"
  | Interval_recv _ -> "interval-recv"
  | Write_notice_recv _ -> "write-notice-recv"
  | Frame_send _ -> "frame-send"
  | Frame_recv _ -> "frame-recv"
  | Frame_drop _ -> "frame-drop"
  | Frame_dup _ -> "frame-dup"
  | Frame_batch _ -> "frame-batch"
  | Diff_cache _ -> "diff-cache"
  | Gc_begin _ -> "gc-begin"
  | Gc_end _ -> "gc-end"
  | Proc_crash -> "proc-crash"
  | Peer_suspect _ -> "peer-suspect"
  | Failover _ -> "failover"
  | Recovery_done _ -> "recovery-done"
  | Diff_backup _ -> "diff-backup"
  | Ts_sync _ -> "ts-sync"
  | Lease_expire _ -> "lease-expire"
  | Quorum_read _ -> "quorum-read"
  | Quorum_write _ -> "quorum-write"
  | Proc_finish -> "proc-finish"

let args ev =
  let open Json in
  let ints vt = List (Array.fold_right (fun n l -> Int n :: l) vt []) in
  match ev with
  | Lock_acquire { lock; local } | Lock_acquired { lock; local } ->
    [ ("lock", Int lock); ("local", Bool local) ]
  | Lock_release { lock; granted_to } ->
    [ ("lock", Int lock);
      ("granted_to", Int (match granted_to with Some p -> p | None -> -1)) ]
  | Lock_queued { lock; requester } | Lock_request_recv { lock; requester } ->
    [ ("lock", Int lock); ("requester", Int requester) ]
  | Lock_forward { lock; requester; target } ->
    [ ("lock", Int lock); ("requester", Int requester); ("target", Int target) ]
  | Lock_grant { lock; requester; intervals; bytes } ->
    [ ("lock", Int lock); ("requester", Int requester); ("intervals", Int intervals);
      ("bytes", Int bytes) ]
  | Barrier_arrive { id; epoch } | Barrier_release { id; epoch } ->
    [ ("id", Int id); ("epoch", Int epoch) ]
  | Page_fault { page; kind } | Page_fault_done { page; kind } ->
    [ ("page", Int page); ("kind", String (fault_kind_name kind)) ]
  | Twin_create { page } | Page_invalidate { page } -> [ ("page", Int page) ]
  | Page_fetch { page; from_ } -> [ ("page", Int page); ("from", Int from_) ]
  | Diff_create { page; bytes; proc; interval } | Diff_apply { page; bytes; proc; interval } ->
    [ ("page", Int page); ("bytes", Int bytes); ("proc", Int proc); ("interval", Int interval) ]
  | Diff_fetch { page; from_; count } ->
    [ ("page", Int page); ("from", Int from_); ("count", Int count) ]
  | Interval_close { id; notices; vt } ->
    [ ("id", Int id); ("notices", Int notices); ("vt", ints vt) ]
  | Interval_recv { proc; id; notices; vt } ->
    [ ("proc", Int proc); ("id", Int id); ("notices", Int notices); ("vt", ints vt) ]
  | Write_notice_recv { page; proc; interval } ->
    [ ("page", Int page); ("proc", Int proc); ("interval", Int interval) ]
  | Frame_send { src; dst; label; bytes; retrans } ->
    [ ("src", Int src); ("dst", Int dst); ("label", String label); ("bytes", Int bytes);
      ("retrans", Bool retrans) ]
  | Frame_recv { src; dst; label; bytes } | Frame_drop { src; dst; label; bytes } ->
    [ ("src", Int src); ("dst", Int dst); ("label", String label); ("bytes", Int bytes) ]
  | Frame_dup { src; dst; label } ->
    [ ("src", Int src); ("dst", Int dst); ("label", String label) ]
  | Frame_batch { src; dst; label; parts } ->
    [ ("src", Int src); ("dst", Int dst); ("label", String label); ("parts", Int parts) ]
  | Diff_cache { page; hit } -> [ ("page", Int page); ("hit", Bool hit) ]
  | Gc_begin { live } -> [ ("live", Int live) ]
  | Gc_end { discarded } -> [ ("discarded", Int discarded) ]
  | Proc_crash -> []
  | Peer_suspect { dst; label; attempts } ->
    [ ("dst", Int dst); ("label", String label); ("attempts", Int attempts) ]
  | Failover { dead; epoch } -> [ ("dead", Int dead); ("epoch", Int epoch) ]
  | Recovery_done { dead; locks; retries } ->
    [ ("dead", Int dead); ("locks", Int locks); ("retries", Int retries) ]
  | Diff_backup { page; proc; interval; bytes; to_ } ->
    [ ("page", Int page); ("proc", Int proc); ("interval", Int interval);
      ("bytes", Int bytes); ("to", Int to_) ]
  | Ts_sync { ts } -> [ ("ts", Int ts) ]
  | Lease_expire { page } -> [ ("page", Int page) ]
  | Quorum_read { page; replies } -> [ ("page", Int page); ("replies", Int replies) ]
  | Quorum_write { pages; acks } -> [ ("pages", Int pages); ("acks", Int acks) ]
  | Proc_finish -> []

(* Inverse of [name]/[args], for re-reading recorded JSONL streams.  Local
   exception turns any missing/mistyped field into [None]. *)
exception Bad_args

let of_args ev_name ev_args =
  let field k = match List.assoc_opt k ev_args with Some v -> v | None -> raise Bad_args in
  let int_of = function Json.Int v -> v | _ -> raise Bad_args in
  let int k = int_of (field k) in
  let bool k = match field k with Json.Bool v -> v | _ -> raise Bad_args in
  let str k = match field k with Json.String v -> v | _ -> raise Bad_args in
  let ints k =
    match field k with
    | Json.List vs -> Array.of_list (List.map int_of vs)
    | _ -> raise Bad_args
  in
  let fault k =
    match str k with "read" -> Read | "write" -> Write | _ -> raise Bad_args
  in
  try
    let ev =
      match ev_name with
      | "lock-acquire" -> Lock_acquire { lock = int "lock"; local = bool "local" }
      | "lock-acquired" -> Lock_acquired { lock = int "lock"; local = bool "local" }
      | "lock-release" ->
        let g = int "granted_to" in
        Lock_release { lock = int "lock"; granted_to = (if g < 0 then None else Some g) }
      | "lock-queued" -> Lock_queued { lock = int "lock"; requester = int "requester" }
      | "lock-request-recv" ->
        Lock_request_recv { lock = int "lock"; requester = int "requester" }
      | "lock-forward" ->
        Lock_forward { lock = int "lock"; requester = int "requester"; target = int "target" }
      | "lock-grant" ->
        Lock_grant
          { lock = int "lock"; requester = int "requester"; intervals = int "intervals";
            bytes = int "bytes" }
      | "barrier-arrive" -> Barrier_arrive { id = int "id"; epoch = int "epoch" }
      | "barrier-release" -> Barrier_release { id = int "id"; epoch = int "epoch" }
      | "page-fault" -> Page_fault { page = int "page"; kind = fault "kind" }
      | "page-fault-done" -> Page_fault_done { page = int "page"; kind = fault "kind" }
      | "twin-create" -> Twin_create { page = int "page" }
      | "page-fetch" -> Page_fetch { page = int "page"; from_ = int "from" }
      | "page-invalidate" -> Page_invalidate { page = int "page" }
      | "diff-create" ->
        Diff_create
          { page = int "page"; bytes = int "bytes"; proc = int "proc";
            interval = int "interval" }
      | "diff-apply" ->
        Diff_apply
          { page = int "page"; bytes = int "bytes"; proc = int "proc";
            interval = int "interval" }
      | "diff-fetch" ->
        Diff_fetch { page = int "page"; from_ = int "from"; count = int "count" }
      | "interval-close" ->
        Interval_close { id = int "id"; notices = int "notices"; vt = ints "vt" }
      | "interval-recv" ->
        Interval_recv
          { proc = int "proc"; id = int "id"; notices = int "notices"; vt = ints "vt" }
      | "write-notice-recv" ->
        Write_notice_recv { page = int "page"; proc = int "proc"; interval = int "interval" }
      | "frame-send" ->
        Frame_send
          { src = int "src"; dst = int "dst"; label = str "label"; bytes = int "bytes";
            retrans = bool "retrans" }
      | "frame-recv" ->
        Frame_recv
          { src = int "src"; dst = int "dst"; label = str "label"; bytes = int "bytes" }
      | "frame-drop" ->
        Frame_drop
          { src = int "src"; dst = int "dst"; label = str "label"; bytes = int "bytes" }
      | "frame-dup" -> Frame_dup { src = int "src"; dst = int "dst"; label = str "label" }
      | "frame-batch" ->
        Frame_batch
          { src = int "src"; dst = int "dst"; label = str "label"; parts = int "parts" }
      | "diff-cache" -> Diff_cache { page = int "page"; hit = bool "hit" }
      | "gc-begin" -> Gc_begin { live = int "live" }
      | "gc-end" -> Gc_end { discarded = int "discarded" }
      | "proc-crash" -> Proc_crash
      | "peer-suspect" ->
        Peer_suspect { dst = int "dst"; label = str "label"; attempts = int "attempts" }
      | "failover" -> Failover { dead = int "dead"; epoch = int "epoch" }
      | "recovery-done" ->
        Recovery_done { dead = int "dead"; locks = int "locks"; retries = int "retries" }
      | "diff-backup" ->
        Diff_backup
          { page = int "page"; proc = int "proc"; interval = int "interval";
            bytes = int "bytes"; to_ = int "to" }
      | "ts-sync" -> Ts_sync { ts = int "ts" }
      | "lease-expire" -> Lease_expire { page = int "page" }
      | "quorum-read" -> Quorum_read { page = int "page"; replies = int "replies" }
      | "quorum-write" -> Quorum_write { pages = int "pages"; acks = int "acks" }
      | "proc-finish" -> Proc_finish
      | _ -> raise Bad_args
    in
    Some ev
  with Bad_args -> None
