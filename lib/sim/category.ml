type t =
  | Computation
  | Unix_comm
  | Unix_mem
  | Tmk_mem
  | Tmk_consistency
  | Tmk_other

let all = [ Computation; Unix_comm; Unix_mem; Tmk_mem; Tmk_consistency; Tmk_other ]
let count = List.length all

let index = function
  | Computation -> 0
  | Unix_comm -> 1
  | Unix_mem -> 2
  | Tmk_mem -> 3
  | Tmk_consistency -> 4
  | Tmk_other -> 5
