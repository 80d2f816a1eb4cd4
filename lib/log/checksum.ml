(* The CRC state lives in a native int (the low 32 bits), so the per-byte
   loop allocates nothing. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(init = 0l) b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Checksum.crc32";
  let c = ref ((Int32.to_int init land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_bytes b = crc32 b 0 (Bytes.length b)
