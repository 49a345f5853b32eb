// Interval accumulation over a modifiable list — a small CL source for
// the cealc command-line compiler (the shipped samples live in
// src/cl/Samples.cpp; this one exercises the file-input path). The
// examples_compile ctest compiles it to C on every build.
//
//   cealc examples/intervals.cl --stats
//
// Cell layout: [0] lo, [1] hi, [2] tail modref. The core tracks the
// running sum of positive interval widths and the count of intervals
// kept, writing both into output modifiables.

func ivsum(modref* l, modref* wsum, modref* cnt) {
  var int z;
  e: z := 0; tail ivloop(l, z, z, wsum, cnt);
}

func ivloop(modref* l, int acc, int n, modref* wsum, modref* cnt) {
  var int* c;
  var int lo; var int hi; var int w; var int ok;
  var int acc2; var int n2;
  var modref* t;
  var int i0; var int i1; var int i2;
  rd: c := read l; goto br;
  br: if c then goto cons else goto nil;
  nil: write(wsum, acc); goto fin;
  fin: write(cnt, n); goto stop;
  stop: done;
  cons: i0 := 0; goto g1;
  g1: i1 := 1; goto g2;
  g2: i2 := 2; goto g3;
  g3: lo := c[i0]; goto g4;
  g4: hi := c[i1]; goto g5;
  g5: t := modref(c, i2); goto g6;
  g6: w := sub(hi, lo); goto g7;
  g7: ok := gt(w, i0); goto g8;
  g8: if ok then goto keep else goto skip;
  keep: acc2 := add(acc, w); goto bump;
  bump: n2 := add(n, i1); tail ivloop(t, acc2, n2, wsum, cnt);
  skip: n2 := add(n, i0); tail ivloop(t, acc, n2, wsum, cnt);
}
