(* Two representations behind one interface: dense packed words (the
   original, O(capacity/62) memory, O(1) membership) and a sparse sorted
   element array (O(cardinal) memory — the representation that lets a
   million-node bounded-degree graph hold one row in O(degree) instead of
   O(n) bits). Iteration order is ascending for both, so every fold over a
   set — in particular the field-element accumulations of the hash
   protocols — produces bit-identical results regardless of representation. *)

type dense = { dcapacity : int; words : int array }

type sparse = { scapacity : int; mutable size : int; mutable elts : int array }
(* Invariant: elts.(0 .. size-1) is strictly increasing; slots beyond [size]
   are garbage. *)

type t = Dense of dense | Sparse of sparse

let word_bits = 62

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  Dense { dcapacity = capacity; words = Array.make ((capacity + word_bits - 1) / word_bits) 0 }

let create_sparse capacity =
  if capacity < 0 then invalid_arg "Bitset.create_sparse: negative capacity";
  Sparse { scapacity = capacity; size = 0; elts = [||] }

let capacity = function Dense d -> d.dcapacity | Sparse s -> s.scapacity

let create_like t =
  match t with Dense d -> create d.dcapacity | Sparse s -> create_sparse s.scapacity

let is_sparse = function Dense _ -> false | Sparse _ -> true

let check t i = if i < 0 || i >= capacity t then invalid_arg "Bitset: index out of range"

(* Position of [i] in s.elts, or the insertion point encoded as [-(pos+1)]. *)
let sparse_find s i =
  let lo = ref 0 and hi = ref s.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.elts.(mid) < i then lo := mid + 1 else hi := mid
  done;
  if !lo < s.size && s.elts.(!lo) = i then !lo else -(!lo + 1)

let mem t i =
  check t i;
  match t with
  | Dense d -> d.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0
  | Sparse s -> sparse_find s i >= 0

let add t i =
  check t i;
  match t with
  | Dense d -> d.words.(i / word_bits) <- d.words.(i / word_bits) lor (1 lsl (i mod word_bits))
  | Sparse s -> (
    let pos = sparse_find s i in
    if pos < 0 then begin
      let at = -pos - 1 in
      if s.size = Array.length s.elts then begin
        let grown = Array.make (max 2 (2 * s.size)) 0 in
        Array.blit s.elts 0 grown 0 s.size;
        s.elts <- grown
      end;
      Array.blit s.elts at s.elts (at + 1) (s.size - at);
      s.elts.(at) <- i;
      s.size <- s.size + 1
    end)

let remove t i =
  check t i;
  match t with
  | Dense d -> d.words.(i / word_bits) <- d.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))
  | Sparse s ->
    let pos = sparse_find s i in
    if pos >= 0 then begin
      Array.blit s.elts (pos + 1) s.elts pos (s.size - pos - 1);
      s.size <- s.size - 1
    end

(* SWAR popcount (Hacker's Delight 5-2), constant-time instead of one loop
   iteration per set bit. Words here carry at most 62 bits, so the final
   byte-sum multiply cannot carry into the sign bit (sum <= 62 < 128) and
   the top byte read by [lsr 56] holds the exact total. *)
let popcount w =
  let m1 = 0x1555555555555555 (* 62-bit 01 pattern *) in
  let m2 = 0x3333333333333333 in
  let m4 = 0x0F0F0F0F0F0F0F0F in
  let w = w - ((w lsr 1) land m1) in
  let w = (w land m2) + ((w lsr 2) land m2) in
  let w = (w + (w lsr 4)) land m4 in
  (w * 0x0101010101010101) lsr 56

let cardinal = function
  | Dense d -> Array.fold_left (fun acc w -> acc + popcount w) 0 d.words
  | Sparse s -> s.size

let iter f t =
  match t with
  | Dense d ->
    for w = 0 to Array.length d.words - 1 do
      let word = ref d.words.(w) in
      while !word <> 0 do
        let bit = !word land - !word in
        let rec log2 b i = if b = 1 then i else log2 (b lsr 1) (i + 1) in
        f ((w * word_bits) + log2 bit 0);
        word := !word land lnot bit
      done
    done
  | Sparse s ->
    for i = 0 to s.size - 1 do
      f s.elts.(i)
    done

let fold f t init =
  match t with
  | Dense _ ->
    let acc = ref init in
    iter (fun i -> acc := f i !acc) t;
    !acc
  | Sparse s ->
    let acc = ref init in
    for i = 0 to s.size - 1 do
      acc := f s.elts.(i) !acc
    done;
    !acc

let fold_right f t init =
  let acc = ref init in
  (match t with
  | Dense d ->
    for w = Array.length d.words - 1 downto 0 do
      let word = d.words.(w) in
      if word <> 0 then
        for b = word_bits - 1 downto 0 do
          if word land (1 lsl b) <> 0 then acc := f ((w * word_bits) + b) !acc
        done
    done
  | Sparse s ->
    for i = s.size - 1 downto 0 do
      acc := f s.elts.(i) !acc
    done);
  !acc

(* Mismatched capacities compare unequal (they are sets over different
   universes, and [Graph.equal] on different-sized graphs must answer
   [false], not raise). Mixed representations compare by contents. *)
let equal a b =
  capacity a = capacity b
  &&
  match (a, b) with
  | Dense x, Dense y -> x.words = y.words
  | Sparse x, Sparse y ->
    x.size = y.size
    &&
    let rec go i = i >= x.size || (x.elts.(i) = y.elts.(i) && go (i + 1)) in
    go 0
  | (Dense _ as d), (Sparse _ as s) | (Sparse _ as s), (Dense _ as d) ->
    cardinal d = cardinal s
    &&
    let ok = ref true in
    iter (fun i -> if not (mem d i) then ok := false) s;
    !ok

let copy = function
  | Dense d -> Dense { d with words = Array.copy d.words }
  | Sparse s -> Sparse { s with elts = Array.sub s.elts 0 s.size }

let clear = function
  | Dense d -> Array.fill d.words 0 (Array.length d.words) 0
  | Sparse s -> s.size <- 0

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity xs =
  let t = create capacity in
  List.iter (add t) xs;
  t

let of_list_sparse capacity xs =
  let t = create_sparse capacity in
  List.iter (add t) xs;
  t

(* The binary set operations keep the capacity-mismatch exception: unlike
   {!equal} there is no meaningful answer over different universes. The
   result takes the left operand's representation. *)
let union a b =
  if capacity a <> capacity b then invalid_arg "Bitset.union: capacity mismatch";
  match (a, b) with
  | Dense x, Dense y -> Dense { x with words = Array.mapi (fun i w -> w lor y.words.(i)) x.words }
  | _ ->
    let r = create_like a in
    iter (add r) a;
    iter (add r) b;
    r

let inter a b =
  if capacity a <> capacity b then invalid_arg "Bitset.inter: capacity mismatch";
  match (a, b) with
  | Dense x, Dense y -> Dense { x with words = Array.mapi (fun i w -> w land y.words.(i)) x.words }
  | _ ->
    let r = create_like a in
    iter (fun i -> if mem b i then add r i) a;
    r

let subset a b =
  if capacity a <> capacity b then invalid_arg "Bitset.subset: capacity mismatch";
  match (a, b) with
  | Dense x, Dense y ->
    let ok = ref true in
    Array.iteri (fun i w -> if w land lnot y.words.(i) <> 0 then ok := false) x.words;
    !ok
  | _ ->
    let ok = ref true in
    iter (fun i -> if not (mem b i) then ok := false) a;
    !ok

let is_empty = function
  | Dense d -> Array.for_all (fun w -> w = 0) d.words
  | Sparse s -> s.size = 0

let choose t =
  match t with
  | Sparse s -> if s.size = 0 then None else Some s.elts.(0)
  | Dense _ ->
    let found = ref None in
    (try iter (fun i -> found := Some i; raise Exit) t with Exit -> ());
    !found

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (to_list t)))
