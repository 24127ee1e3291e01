(* [@@noalloc]: the stub returns an immediate, so calling it from the
   hot path costs a C call and nothing else. *)
external now_ns : unit -> int = "stt_monotonic_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) *. 1e-9
