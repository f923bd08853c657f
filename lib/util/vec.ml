type 'a t = { mutable buf : 'a array; mutable len : int }

(* The backing array is allocated lazily at the first push: there is no
   dummy element to fill it with. *)
let create () = { buf = [||]; len = 0 }

let length t = t.len

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let grown = Array.make (if cap = 0 then 8 else 2 * cap) x in
    Array.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  Array.unsafe_set t.buf t.len x;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.buf i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.buf i)
  done;
  !acc

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (Array.unsafe_get t.buf i :: acc) in
  build (t.len - 1) []

let clear t = t.len <- 0
