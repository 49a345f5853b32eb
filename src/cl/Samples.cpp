//===- cl/Samples.cpp - Sample CL programs ----------------------------------===//
//
// Hand-written CL sources. CL has no nested expressions, so every
// intermediate lands in its own block — this is the flat form the
// paper's front end produces from CEAL source (Sec. 4.3).
//
//===----------------------------------------------------------------------===//

#include "cl/Samples.h"

using namespace ceal;
using namespace ceal::cl;

//===----------------------------------------------------------------------===//
// Expression trees (paper Fig. 2). Node: [0] kind(1=leaf), [1] op/num,
// [2] left modref, [3] right modref. Ops: 0 = plus, 1 = minus.
//===----------------------------------------------------------------------===//

const char *samples::ExpTrees = R"(
func eval(modref* root, modref* res) {
  var int* t;
  var int k;  var int a;  var int b;  var int op; var int v;
  var modref* ma;   var modref* mb;
  var modref* lref; var modref* rref;
  var int i0; var int i1; var int i2; var int i3;
  c0: i0 := 0; goto c1;
  c1: i1 := 1; goto c2;
  c2: i2 := 2; goto c3;
  c3: i3 := 3; goto rd;
  rd: t := read root; goto kk;
  kk: k := t[i0]; goto br;
  br: if k then goto leaf else goto node;
  leaf: v := t[i1]; goto lw;
  lw: write(res, v); goto fin;
  fin: done;
  node: ma := modref(t, i0); goto n1;
  n1: mb := modref(t, i1); goto n2;
  n2: lref := t[i2]; goto n3;
  n3: rref := t[i3]; goto n4;
  n4: call eval(lref, ma); goto n5;
  n5: call eval(rref, mb); goto n6;
  n6: a := read ma; goto n7;
  n7: b := read mb; goto n8;
  n8: op := t[i1]; goto n9;
  n9: if op then goto nsub else goto nadd;
  nadd: v := add(a, b); goto nw;
  nsub: v := sub(a, b); goto nw;
  nw: write(res, v); goto nfin;
  nfin: done;
}
)";

//===----------------------------------------------------------------------===//
// List primitives. Cell: [0] head, [1] tail modref.
//===----------------------------------------------------------------------===//

const char *samples::ListPrims = R"(
func lp_cellinit(int* blk, int h, modref* t) {
  var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: blk[i0] := h; goto e3;
  e3: blk[i1] := t; goto e4;
  e4: done;
}

// map: d := [h/3 + h/7 + h/9 | h <- l]  (the paper's f).
func map(modref* l, modref* d) {
  var int* c; var int* out;
  var int h; var int fh; var int h3; var int h7; var int h9;
  var modref* od; var modref* tl;
  var int i0; var int i1; var int sz;
  var int k3; var int k7; var int k9; var int z;
  rd: c := read l; goto br;
  br: if c then goto cons else goto nil;
  nil: z := 0; goto nw;
  nw: write(d, z); goto fin;
  fin: done;
  cons: i0 := 0; goto a1;
  a1: i1 := 1; goto a2;
  a2: k3 := 3; goto a3;
  a3: k7 := 7; goto a4;
  a4: k9 := 9; goto a5;
  a5: sz := 16; goto a6;
  a6: h := c[i0]; goto a7;
  a7: h3 := div(h, k3); goto a8;
  a8: h7 := div(h, k7); goto a9;
  a9: h9 := div(h, k9); goto a10;
  a10: fh := add(h3, h7); goto a11;
  a11: fh := add(fh, h9); goto a12;
  a12: od := modref(c); goto a13;
  a13: out := alloc(sz, lp_cellinit, fh, od); goto a14;
  a14: write(d, out); goto a15;
  a15: tl := c[i1]; tail map(tl, od);
}

// filter: keep h iff f(h) is even.
func filter(modref* l, modref* d) {
  var int* c; var int* out;
  var int h; var int fh; var int h3; var int h7; var int h9; var int p;
  var modref* od; var modref* tl;
  var int i0; var int i1; var int sz;
  var int k2; var int k3; var int k7; var int k9; var int z;
  rd: c := read l; goto br;
  br: if c then goto cons else goto nil;
  nil: z := 0; goto nw;
  nw: write(d, z); goto fin;
  fin: done;
  cons: i0 := 0; goto f1;
  f1: i1 := 1; goto f2;
  f2: k2 := 2; goto f3;
  f3: k3 := 3; goto f4;
  f4: k7 := 7; goto f5;
  f5: k9 := 9; goto f6;
  f6: sz := 16; goto f7;
  f7: h := c[i0]; goto f8;
  f8: h3 := div(h, k3); goto f9;
  f9: h7 := div(h, k7); goto f10;
  f10: h9 := div(h, k9); goto f11;
  f11: fh := add(h3, h7); goto f12;
  f12: fh := add(fh, h9); goto f13;
  f13: p := mod(fh, k2); goto f14;
  f14: if p then goto skip else goto keep;
  keep: od := modref(c); goto k1;
  k1: out := alloc(sz, lp_cellinit, h, od); goto k4;
  k4: write(d, out); goto k5;
  k5: tl := c[i1]; tail filter(tl, od);
  skip: tl := c[i1]; tail filter(tl, d);
}

// reverse via an output-cell accumulator.
func reverse(modref* l, modref* d) {
  var int z;
  e: z := 0; tail rev_go(l, z, d);
}
func rev_go(modref* l, int* acc, modref* d) {
  var int* c; var int* out;
  var int h; var modref* od; var modref* tl;
  var int i0; var int i1; var int sz;
  rd: c := read l; goto br;
  br: if c then goto cons else goto base;
  base: write(d, acc); goto fin;
  fin: done;
  cons: i0 := 0; goto r1;
  r1: i1 := 1; goto r2;
  r2: sz := 16; goto r3;
  r3: h := c[i0]; goto r4;
  r4: od := modref(c); goto r5;
  r5: out := alloc(sz, lp_cellinit, h, od); goto r6;
  r6: write(od, acc); goto r7;
  r7: tl := c[i1]; tail rev_go(tl, out, d);
}

// sum via an accumulator chain.
func sum(modref* l, modref* d) {
  var int z;
  e: z := 0; tail sum_go(l, z, d);
}
func sum_go(modref* l, int acc, modref* d) {
  var int* c; var int h; var int acc2; var modref* tl;
  var int i0; var int i1;
  rd: c := read l; goto br;
  br: if c then goto cons else goto base;
  base: write(d, acc); goto fin;
  fin: done;
  cons: i0 := 0; goto s1;
  s1: i1 := 1; goto s2;
  s2: h := c[i0]; goto s3;
  s3: acc2 := add(acc, h); goto s4;
  s4: tl := c[i1]; tail sum_go(tl, acc2, d);
}
)";

//===----------------------------------------------------------------------===//
// Quicksort.
//===----------------------------------------------------------------------===//

const char *samples::Quicksort = R"(
func qs_cellinit(int* blk, int h, modref* t) {
  var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: blk[i0] := h; goto e3;
  e3: blk[i1] := t; goto e4;
  e4: done;
}

func qsort(modref* l, modref* d) {
  var int z;
  e: z := 0; tail qs_go(l, d, z);
}

// qs_go(l, d, rest): d := sort(l) ++ rest.
func qs_go(modref* l, modref* d, int* rest) {
  var int* c; var int* pcell;
  var int pivot; var int sz;
  var modref* less; var modref* geq; var modref* pd; var modref* tl;
  var int i0; var int i1;
  rd: c := read l; goto br;
  br: if c then goto cons else goto base;
  base: write(d, rest); goto fin;
  fin: done;
  cons: i0 := 0; goto q1;
  q1: i1 := 1; goto q2;
  q2: sz := 16; goto q3;
  q3: pivot := c[i0]; goto q4;
  q4: less := modref(c, i0); goto q5;
  q5: geq := modref(c, i1); goto q6;
  q6: tl := c[i1]; goto q7;
  q7: call qs_part(tl, less, geq, pivot); goto q8;
  q8: pd := modref(c, sz); goto q9;
  q9: pcell := alloc(sz, qs_cellinit, pivot, pd); goto q10;
  q10: call qs_go(geq, pd, rest); goto q11;
  q11: nop; tail qs_go(less, d, pcell);
}

func qs_part(modref* l, modref* dl, modref* dg, int pivot) {
  var int* c; var int* out;
  var int h; var int cc; var int sz; var int z;
  var modref* ot; var modref* t2;
  var int i0; var int i1;
  rd: c := read l; goto br;
  br: if c then goto cons else goto base;
  base: z := 0; goto b1;
  b1: write(dl, z); goto b2;
  b2: write(dg, z); goto fin;
  fin: done;
  cons: i0 := 0; goto p1;
  p1: i1 := 1; goto p2;
  p2: sz := 16; goto p3;
  p3: h := c[i0]; goto p4;
  p4: cc := lt(h, pivot); goto p5;
  p5: if cc then goto toless else goto togeq;
  toless: ot := modref(c, pivot); goto la;
  la: out := alloc(sz, qs_cellinit, h, ot); goto lb;
  lb: write(dl, out); goto lc;
  lc: t2 := c[i1]; tail qs_part(t2, ot, dg, pivot);
  togeq: ot := modref(c, pivot); goto ga;
  ga: out := alloc(sz, qs_cellinit, h, ot); goto gb;
  gb: write(dg, out); goto gc;
  gc: t2 := c[i1]; tail qs_part(t2, dl, ot, pivot);
}
)";

//===----------------------------------------------------------------------===//
// Mergesort (coin split).
//===----------------------------------------------------------------------===//

const char *samples::Mergesort = R"(
func ms_cellinit(int* blk, int h, modref* t) {
  var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: blk[i0] := h; goto e3;
  e3: blk[i1] := t; goto e4;
  e4: done;
}

func msort(modref* l, modref* d) {
  var int lv;
  e: lv := 0; tail ms_sort(l, d, lv);
}

// Sorts the list in l into d; lv is the recursion level, which salts the
// split's coins.
func ms_sort(modref* l, modref* d, int lv) {
  var int* c; var int* t2; var int* out;
  var int h; var int sz; var int z;
  var modref* tl; var modref* ot;
  var modref* a; var modref* b; var modref* sa; var modref* sb;
  var int i0; var int i1; var int lv2;
  var int k2; var int k3; var int k4; var int k5;
  rd: c := read l; goto br;
  br: if c then goto probe else goto base;
  base: z := 0; goto bw;
  bw: write(d, z); goto fin;
  fin: done;
  probe: i1 := 1; goto pr1;
  pr1: tl := c[i1]; goto pr2;
  pr2: t2 := read tl; goto br2;
  br2: if t2 then goto split else goto single;
  single: i0 := 0; goto sg1;
  sg1: sz := 16; goto sg2;
  sg2: h := c[i0]; goto sg3;
  sg3: ot := modref(c, i0); goto sg4;
  sg4: out := alloc(sz, ms_cellinit, h, ot); goto sg5;
  sg5: z := 0; goto sg6;
  sg6: write(ot, z); goto sg7;
  sg7: write(d, out); goto sg8;
  sg8: done;
  split: k2 := 2; goto sk3;
  sk3: k3 := 3; goto sk4;
  sk4: k4 := 4; goto sk5;
  sk5: k5 := 5; goto sk6;
  sk6: a := modref(c, k2); goto sp1;
  sp1: b := modref(c, k3); goto sp2;
  sp2: lv2 := add(lv, i1); goto sp3;
  sp3: call ms_split(c, a, b, lv); goto sp4;
  sp4: sa := modref(c, k4); goto sp5;
  sp5: sb := modref(c, k5); goto sp6;
  sp6: call ms_sort(a, sa, lv2); goto sp7;
  sp7: call ms_sort(b, sb, lv2); goto sp8;
  sp8: nop; tail ms_merge(sa, sb, d);
}

// Distributes the chain starting at cell c onto da / db by a coin of
// each cell's identity salted by the level, so a deleted or inserted cell
// moves no other cell (a split by position flips every later cell).
func ms_split(int* c, modref* da, modref* db, int lv) {
  var int* out;
  var int h; var int sz; var int z; var int* nx;
  var modref* ot; var modref* tlr;
  var int i0; var int i1;
  var int hk; var int hd; var int k2; var int s; var int s2; var int s3;
  var int side;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: sz := 16; goto e3;
  e3: h := c[i0]; goto e4;
  e4: ot := modref(c, i0); goto e5;
  e5: out := alloc(sz, ms_cellinit, h, ot); goto h0;
  h0: hk := 2654435761; goto h1;
  h1: hd := 65536; goto h2;
  h2: k2 := 2; goto h3;
  h3: s := add(c, lv); goto h4;
  h4: s2 := mul(s, hk); goto h5;
  h5: s3 := div(s2, hd); goto h6;
  h6: side := mod(s3, k2); goto e6;
  e6: if side then goto pb else goto pa;
  pa: write(da, out); goto pa1;
  pa1: tlr := c[i1]; goto pa3;
  pa3: nx := read tlr; goto pa4;
  pa4: if nx then goto pa5 else goto paz;
  pa5: nop; tail ms_split(nx, ot, db, lv);
  paz: z := 0; goto paz1;
  paz1: write(ot, z); goto paz2;
  paz2: write(db, z); goto finz;
  finz: done;
  pb: write(db, out); goto pb1;
  pb1: tlr := c[i1]; goto pb3;
  pb3: nx := read tlr; goto pb4;
  pb4: if nx then goto pb5 else goto pbz;
  pb5: nop; tail ms_split(nx, da, ot, lv);
  pbz: z := 0; goto pbz1;
  pbz1: write(ot, z); goto pbz2;
  pbz2: write(da, z); goto finz2;
  finz2: done;
}

func ms_merge(modref* sa, modref* sb, modref* d) {
  var int* a; var int* b;
  r1: a := read sa; goto r2;
  r2: b := read sb; goto go;
  go: nop; tail ms_mergego(a, b, d);
}

func ms_mergego(int* a, int* b, modref* d) {
  var int* out; var int* na; var int* nb;
  var int x; var int y; var int cc; var int sz;
  var modref* ot; var modref* tlr;
  var int i0; var int i1;
  e: if a then goto ha else goto useb;
  useb: write(d, b); goto fin;
  fin: done;
  ha: if b then goto both else goto usea;
  usea: write(d, a); goto fin2;
  fin2: done;
  both: i0 := 0; goto m1;
  m1: i1 := 1; goto m2;
  m2: sz := 16; goto m3;
  m3: x := a[i0]; goto m4;
  m4: y := b[i0]; goto m5;
  m5: cc := le(x, y); goto m6;
  m6: if cc then goto ea else goto eb;
  ea: ot := modref(a, i0); goto ea1;
  ea1: out := alloc(sz, ms_cellinit, x, ot); goto ea2;
  ea2: write(d, out); goto ea3;
  ea3: tlr := a[i1]; goto ea4;
  ea4: na := read tlr; tail ms_mergego(na, b, ot);
  eb: ot := modref(b, i1); goto eb1;
  eb1: out := alloc(sz, ms_cellinit, y, ot); goto eb2;
  eb2: write(d, out); goto eb3;
  eb3: tlr := b[i1]; goto eb4;
  eb4: nb := read tlr; tail ms_mergego(a, nb, ot);
}
)";

//===----------------------------------------------------------------------===//
// Integer quickhull. Point: [0] x, [1] y. Cell: [0] point ptr, [1] tail.
//===----------------------------------------------------------------------===//

const char *samples::Quickhull = R"(
func qh_cellinit(int* blk, int* p, modref* t) {
  var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: blk[i0] := p; goto e3;
  e3: blk[i1] := t; goto e4;
  e4: done;
}

func qh(modref* l, modref* d) {
  var int* c; var int* p; var int* a; var int* b; var int* out; var int* mm;
  var modref* dmn; var modref* dmx; var modref* tlr;
  var modref* above; var modref* below; var modref* md; var modref* t;
  var int i0; var int i1; var int sz; var int z; var int same;
  rd: c := read l; goto br;
  br: if c then goto go else goto nil;
  nil: z := 0; goto nw;
  nw: write(d, z); goto fin;
  fin: done;
  go: i0 := 0; goto g1;
  g1: i1 := 1; goto g2;
  g2: sz := 16; goto g3;
  g3: p := c[i0]; goto g4;
  g4: dmn := modref(c, i0); goto g5;
  g5: dmx := modref(c, i1); goto g6;
  g6: tlr := c[i1]; goto g7;
  g7: call qh_scan(tlr, p, p, dmn, dmx); goto g8;
  g8: a := read dmn; goto g9;
  g9: b := read dmx; goto g10;
  g10: same := eq(a, b); goto g11;
  g11: if same then goto single else goto full;
  single: t := modref(a, i0); goto s1;
  s1: out := alloc(sz, qh_cellinit, a, t); goto s2;
  s2: z := 0; goto s3;
  s3: write(t, z); goto s4;
  s4: write(d, out); goto s5;
  s5: done;
  full: above := modref(a, i0); goto u1;
  u1: below := modref(b, i0); goto u2;
  u2: call qh_filter(l, above, a, b); goto u3;
  u3: call qh_filter(l, below, b, a); goto u4;
  u4: md := modref(b, i1); goto u5;
  u5: z := 0; goto u6;
  u6: call qh_go(below, b, a, md, z); goto u7;
  u7: mm := read md; tail qh_go(above, a, b, d, mm);
}

// Chain scan for the min-x and max-x points (ties by y).
func qh_scan(modref* l, int* mn, int* mx, modref* dmn, modref* dmx) {
  var int* c; var int* p; var int* mn2; var int* mx2;
  var modref* tlr;
  var int i0; var int i1;
  var int px; var int py; var int qx; var int qy;
  var int lt1; var int eq1; var int lt2; var int take;
  rd: c := read l; goto br;
  br: if c then goto step else goto base;
  base: write(dmn, mn); goto b1;
  b1: write(dmx, mx); goto fin;
  fin: done;
  step: i0 := 0; goto t1;
  t1: i1 := 1; goto t2;
  t2: p := c[i0]; goto t3;
  t3: px := p[i0]; goto t4;
  t4: py := p[i1]; goto t5;
  t5: qx := mn[i0]; goto t6;
  t6: qy := mn[i1]; goto t7;
  t7: lt1 := lt(px, qx); goto t8;
  t8: eq1 := eq(px, qx); goto t9;
  t9: lt2 := lt(py, qy); goto t10;
  t10: lt2 := and(eq1, lt2); goto t11;
  t11: take := or(lt1, lt2); goto t12;
  t12: if take then goto newmn else goto oldmn;
  newmn: mn2 := p; goto mx0;
  oldmn: mn2 := mn; goto mx0;
  mx0: qx := mx[i0]; goto x1;
  x1: qy := mx[i1]; goto x2;
  x2: lt1 := gt(px, qx); goto x3;
  x3: eq1 := eq(px, qx); goto x4;
  x4: lt2 := gt(py, qy); goto x5;
  x5: lt2 := and(eq1, lt2); goto x6;
  x6: take := or(lt1, lt2); goto x7;
  x7: if take then goto newmx else goto oldmx;
  newmx: mx2 := p; goto nxt;
  oldmx: mx2 := mx; goto nxt;
  nxt: tlr := c[i1]; tail qh_scan(tlr, mn2, mx2, dmn, dmx);
}

// Keep points strictly left of pa -> pb.
func qh_filter(modref* l, modref* dd, int* pa, int* pb) {
  var int* c; var int* p; var int* out;
  var modref* ot; var modref* tlr;
  var int i0; var int i1; var int sz; var int z;
  var int ax; var int ay; var int bx; var int by; var int px; var int py;
  var int d1; var int d2; var int d3; var int d4;
  var int m1; var int m2; var int v; var int pos;
  rd: c := read l; goto br;
  br: if c then goto chk else goto nil;
  nil: z := 0; goto nw;
  nw: write(dd, z); goto fin;
  fin: done;
  chk: i0 := 0; goto c1;
  c1: i1 := 1; goto c2;
  c2: sz := 16; goto c3;
  c3: p := c[i0]; goto c4;
  c4: ax := pa[i0]; goto c5;
  c5: ay := pa[i1]; goto c6;
  c6: bx := pb[i0]; goto c7;
  c7: by := pb[i1]; goto c8;
  c8: px := p[i0]; goto c9;
  c9: py := p[i1]; goto c10;
  c10: d1 := sub(bx, ax); goto c11;
  c11: d2 := sub(py, ay); goto c12;
  c12: m1 := mul(d1, d2); goto c13;
  c13: d3 := sub(by, ay); goto c14;
  c14: d4 := sub(px, ax); goto c15;
  c15: m2 := mul(d3, d4); goto c16;
  c16: v := sub(m1, m2); goto c17;
  c17: z := 0; goto c18;
  c18: pos := gt(v, z); goto c19;
  c19: if pos then goto keep else goto skip;
  keep: ot := modref(c, pa); goto k1;
  k1: out := alloc(sz, qh_cellinit, p, ot); goto k2;
  k2: write(dd, out); goto k3;
  k3: tlr := c[i1]; tail qh_filter(tlr, ot, pa, pb);
  skip: tlr := c[i1]; tail qh_filter(tlr, dd, pa, pb);
}

// qh_go(s, pa, pb, d, rest): d := hull vertices from pa (inclusive)
// to pb (exclusive) over candidate set s, then rest.
func qh_go(modref* s, int* pa, int* pb, modref* d, int* rest) {
  var int* c; var int* out;
  var modref* t;
  var int sz; var int z; var int zp;
  rd: c := read s; goto br;
  br: if c then goto scan else goto leaf;
  leaf: sz := 16; goto l1;
  l1: t := modref(pa, pb); goto l2;
  l2: out := alloc(sz, qh_cellinit, pa, t); goto l3;
  l3: write(d, out); goto l4;
  l4: write(t, rest); goto fin;
  fin: done;
  scan: z := 0; goto s1;
  s1: zp := 0; goto s2;
  s2: nop; tail qh_far(c, pa, pb, zp, z, s, d, rest);
}

// Finds the farthest strictly-left point; bp/bv accumulate the best.
func qh_far(int* c, int* pa, int* pb, int* bp, int bv, modref* s,
            modref* d, int* rest) {
  var int* p; var int* out; var int* bp2; var int* nx; var int* mm;
  var modref* tlr; var modref* t; var modref* sl; var modref* sr;
  var modref* md;
  var int i0; var int i1; var int sz;
  var int ax; var int ay; var int bx; var int by; var int px; var int py;
  var int d1; var int d2; var int d3; var int d4;
  var int m1; var int m2; var int v; var int better; var int bv2;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: sz := 16; goto e3;
  e3: p := c[i0]; goto e4;
  e4: ax := pa[i0]; goto e5;
  e5: ay := pa[i1]; goto e6;
  e6: bx := pb[i0]; goto e7;
  e7: by := pb[i1]; goto e8;
  e8: px := p[i0]; goto e9;
  e9: py := p[i1]; goto e10;
  e10: d1 := sub(bx, ax); goto e11;
  e11: d2 := sub(py, ay); goto e12;
  e12: m1 := mul(d1, d2); goto e13;
  e13: d3 := sub(by, ay); goto e14;
  e14: d4 := sub(px, ax); goto e15;
  e15: m2 := mul(d3, d4); goto e16;
  e16: v := sub(m1, m2); goto e17;
  e17: better := gt(v, bv); goto e18;
  e18: if better then goto takeit else goto keep;
  takeit: bp2 := p; goto tk1;
  tk1: bv2 := v; goto nxt;
  keep: bp2 := bp; goto kp1;
  kp1: bv2 := bv; goto nxt;
  nxt: tlr := c[i1]; goto nrd;
  nrd: nx := read tlr; goto nbr;
  nbr: if nx then goto cont else goto donech;
  cont: nop; tail qh_far(nx, pa, pb, bp2, bv2, s, d, rest);
  donech: if bp2 then goto recurse else goto leaf2;
  leaf2: t := modref(pa, pb); goto z1;
  z1: out := alloc(sz, qh_cellinit, pa, t); goto z2;
  z2: write(d, out); goto z3;
  z3: write(t, rest); goto finz;
  finz: done;
  recurse: sl := modref(pa, bp2); goto r1;
  r1: sr := modref(bp2, pb); goto r2;
  r2: call qh_filter(s, sl, pa, bp2); goto r3;
  r3: call qh_filter(s, sr, bp2, pb); goto r4;
  r4: md := modref(bp2, i0); goto r5;
  r5: call qh_go(sr, bp2, pb, md, rest); goto r6;
  r6: mm := read md; tail qh_go(sl, pa, bp2, d, mm);
}
)";

//===----------------------------------------------------------------------===//
// List reduction by randomized contraction rounds (the structure behind
// the minimum/sum rows of Table 1 and the per-round organization of tree
// contraction). Values travel in modifiables ("VCells": [0] value modref,
// [1] tail modref) so unaffected combines equality-cut; run boundaries
// come from a multiplicative hash of the cell pointer and the round.
//===----------------------------------------------------------------------===//

const char *samples::ListReduce = R"(
func lr_vcellinit(int* blk, modref* v, modref* t) {
  var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: blk[i0] := v; goto e3;
  e3: blk[i1] := t; goto e4;
  e4: done;
}

// lrsum(l, d): d := sum of the list l.
func lrsum(modref* l, modref* d) {
  var modref* vh; var int z;
  e0: vh := modref(d); goto e1;
  e1: call lr_conv(l, vh); goto e2;
  e2: z := 0; tail lr_rounds(vh, d, z);
}

// Converts input cells into VCells keyed by their source cell.
func lr_conv(modref* l, modref* vd) {
  var int* c; var int* vc;
  var modref* v; var modref* t; var modref* tl;
  var int h; var int z; var int i0; var int i1; var int sz;
  rd: c := read l; goto br;
  br: if c then goto cons else goto nil;
  nil: z := 0; goto nw;
  nw: write(vd, z); goto fin;
  fin: done;
  cons: i0 := 0; goto c1;
  c1: i1 := 1; goto c2;
  c2: sz := 16; goto c3;
  c3: v := modref(c); goto c4;
  c4: t := modref(c, i1); goto c5;
  c5: vc := alloc(sz, lr_vcellinit, v, t); goto c6;
  c6: h := c[i0]; goto c7;
  c7: write(v, h); goto c8;
  c8: write(vd, vc); goto c9;
  c9: tl := c[i1]; tail lr_conv(tl, t);
}

// One level of contraction, then recurse until a singleton remains.
func lr_rounds(modref* lh, modref* d, int round) {
  var int* c; var int* t2;
  var modref* tl; var modref* oh; var modref* vm;
  var int z; var int i0; var int i1; var int round2;
  rd: c := read lh; goto br;
  br: if c then goto probe else goto base;
  base: z := 0; goto bw;
  bw: write(d, z); goto fin;
  fin: done;
  probe: i1 := 1; goto p1;
  p1: tl := c[i1]; goto p2;
  p2: t2 := read tl; goto br2;
  br2: if t2 then goto level else goto single;
  single: i0 := 0; goto s1;
  s1: vm := c[i0]; goto s2;
  s2: nop; tail lr_copy(vm, d);
  level: oh := modref(c, round); goto l1;
  l1: call lr_runstart(c, oh, round); goto l2;
  l2: round2 := add(round, i1); tail lr_rounds(oh, d, round2);
}

func lr_copy(modref* src, modref* d) {
  var int v;
  rd: v := read src; goto wr;
  wr: write(d, v); goto fin;
  fin: done;
}

// Begins a run at cell f, accumulating into the emitted output VCell.
func lr_runstart(int* f, modref* dst, int round) {
  var modref* vm; var modref* tl;
  var int acc; var int i0; var int i1;
  e0: i0 := 0; goto e1;
  e1: i1 := 1; goto e2;
  e2: vm := f[i0]; goto e3;
  e3: acc := read vm; goto e4;
  e4: tl := f[i1]; tail lr_runnext(tl, acc, f, dst, round);
}

// Extends or closes the current run; boundaries come from a hash coin.
func lr_runnext(modref* tl, int acc, int* f, modref* dst, int round) {
  var int* n; var int* oc;
  var modref* vm; var modref* ov; var modref* ot; var modref* tl2;
  var int v; var int acc2; var int z; var int i0; var int i1; var int sz;
  var int hk; var int hd; var int s; var int s2; var int s3; var int coin;
  var int k2;
  rd: n := read tl; goto br;
  br: if n then goto chk else goto emitlast;
  chk: hk := 2654435761; goto h1;
  h1: hd := 65536; goto h2;
  h2: k2 := 2; goto h3;
  h3: s := add(n, round); goto h4;
  h4: s2 := mul(s, hk); goto h5;
  h5: s3 := div(s2, hd); goto h6;
  h6: coin := mod(s3, k2); goto h7;
  h7: if coin then goto emit else goto join;
  join: i0 := 0; goto j1;
  j1: i1 := 1; goto j2;
  j2: vm := n[i0]; goto j3;
  j3: v := read vm; goto j4;
  j4: acc2 := add(acc, v); goto j5;
  j5: tl2 := n[i1]; tail lr_runnext(tl2, acc2, f, dst, round);
  emit: i1 := 1; goto m1;
  m1: sz := 16; goto m2;
  m2: ov := modref(f, round); goto m3;
  m3: ot := modref(f, round, i1); goto m4;
  m4: oc := alloc(sz, lr_vcellinit, ov, ot); goto m5;
  m5: write(ov, acc); goto m6;
  m6: write(dst, oc); goto m7;
  m7: nop; tail lr_runstart(n, ot, round);
  emitlast: i1 := 1; goto q1;
  q1: sz := 16; goto q2;
  q2: ov := modref(f, round); goto q3;
  q3: ot := modref(f, round, i1); goto q4;
  q4: oc := alloc(sz, lr_vcellinit, ov, ot); goto q5;
  q5: write(ov, acc); goto q6;
  q6: write(dst, oc); goto q7;
  q7: z := 0; goto q8;
  q8: write(ot, z); goto q9;
  q9: done;
}
)";

std::vector<std::pair<std::string, std::string>> samples::allPrograms() {
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"exptrees", ExpTrees},
      {"listprims", ListPrims},
      {"listreduce", ListReduce},
      {"quicksort", Quicksort},
      {"mergesort", Mergesort},
      {"quickhull", Quickhull},
  };
  // The combined "test driver" of Table 3: every benchmark core in one
  // translation unit.
  std::string Driver;
  for (const auto &[Name, Source] : Programs)
    Driver += Source;
  Programs.push_back({"testdriver", Driver});
  return Programs;
}
