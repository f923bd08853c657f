type record = { r_time : int; r_pid : int; r_ev : Event.t }

(* Growable array by hand: OCaml 5.1 has no Dynarray yet, and a list
   would put the stream in reverse order with two words of overhead per
   record. *)
type t = {
  mutable buf : record array;
  mutable len : int;
  listeners : (record -> unit) Tmk_util.Vec.t;
      (* push order = registration order = notification order; the old
         [l @ [f]] registration re-copied the whole list per listener *)
}

let dummy = { r_time = 0; r_pid = -1; r_ev = Event.Proc_finish }
let create () = { buf = Array.make 256 dummy; len = 0; listeners = Tmk_util.Vec.create () }

let emit t ~time ~pid ev =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  let r = { r_time = time; r_pid = pid; r_ev = ev } in
  t.buf.(t.len) <- r;
  t.len <- t.len + 1;
  Tmk_util.Vec.iter (fun f -> f r) t.listeners

let on_record t f = Tmk_util.Vec.push t.listeners f
let length t = t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let clear t = t.len <- 0
