(* RFC 1071 Internet checksum (16-bit ones'-complement sum). *)

let sum_bytes ?(acc = 0) buf ~off ~len =
  let acc = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    acc := !acc + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Bytes.get_uint8 buf !i lsl 8);
  !acc

let fold_carries sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let finish sum = lnot (fold_carries sum) land 0xFFFF

let of_bytes buf ~off ~len = finish (sum_bytes buf ~off ~len)

(* Incremental update per RFC 1624: new = ~(~old + ~m + m'). *)
let update ~old_csum ~old_field ~new_field =
  let not16 v = lnot v land 0xFFFF in
  let sum = not16 old_csum + not16 old_field + new_field in
  not16 (fold_carries sum)

let valid buf ~off ~len = fold_carries (sum_bytes buf ~off ~len) = 0xFFFF
