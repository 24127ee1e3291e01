type mode = Off | Auto | Forced

let of_env () =
  match Sys.getenv_opt "STT_FACTORIZE" with
  | Some ("off" | "0" | "false") -> Off
  | Some ("on" | "forced" | "1" | "true") -> Forced
  | Some _ | None -> Auto

let current = Atomic.make (of_env ())
let mode () = Atomic.get current
let set_mode m = Atomic.set current m

(* [rows / size >= 5/4] in integers *)
let ratio_ok ~rows ~size = 4 * rows >= 5 * size

let eligible ~rows ~size =
  match mode () with
  | Off -> false
  | Auto -> ratio_ok ~rows ~size
  | Forced -> true

let effective_size ~rows ~size = if eligible ~rows ~size then size else rows
