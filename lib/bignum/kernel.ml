(* Bindings for the C wide-limb kernels (ids_kernel.c) plus the process-wide
   backend switch.  All externals are [@@noalloc]: they touch only immediate
   int-array elements, never allocate, and never call back into OCaml.

   `IDS_BIGNUM_KERNEL=ocaml` pins the pure-OCaml hi:lo-split paths in
   nat.ml/montgomery.ml instead — slower, but portable and the reference the
   cross-radix qcheck oracles triangulate against. *)

external nat_mul : int array -> int array -> int array -> unit
  = "ids_nat_mul_stub"
[@@noalloc]

external nat_sqr : int array -> int array -> unit = "ids_nat_sqr_stub"
[@@noalloc]

external mont_mul : int array -> int -> int array -> int array -> int array -> unit
  = "ids_mont_mul_stub"
[@@noalloc]

external mont_sqr : int array -> int -> int array -> int array -> unit
  = "ids_mont_sqr_stub"
[@@noalloc]

external mont_redc : int array -> int -> int array -> int array -> unit
  = "ids_mont_redc_stub"
[@@noalloc]

external mulmod62 : int -> int -> int -> int = "ids_mulmod62_stub" [@@noalloc]

external row_terms62 : int array -> int -> int array -> int -> int array -> int -> unit
  = "ids_row_terms62_byte" "ids_row_terms62_stub"
[@@noalloc]

(* The C side sizes its stack buffers for la + lb <= 1024 limbs; Nat's
   dispatch splits larger operands before reaching the base kernel, so this
   cap is a contract, not a tunable. *)
let mul_cap = 1024

let use_c =
  match Sys.getenv_opt "IDS_BIGNUM_KERNEL" with
  | Some "ocaml" -> false
  | Some "c" | None | Some _ -> true
