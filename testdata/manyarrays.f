{ Thirty two-dimensional arrays in three nests: 60 affinity-graph nodes,
  past align.ExactMaxNodes, so every segment is aligned by the greedy
  heuristic (searched exactly, segment by segment, this file takes dmcc
  eight minutes). Each statement reads two other arrays straight and
  transposed, so the edges conflict and no partition has a zero cut. }
PROGRAM manyarrays
PARAM m
REAL A01(m,m), A02(m,m), A03(m,m), A04(m,m), A05(m,m), A06(m,m), A07(m,m), A08(m,m), A09(m,m), A10(m,m), A11(m,m), A12(m,m), A13(m,m), A14(m,m), A15(m,m), A16(m,m), A17(m,m), A18(m,m), A19(m,m), A20(m,m), A21(m,m), A22(m,m), A23(m,m), A24(m,m), A25(m,m), A26(m,m), A27(m,m), A28(m,m), A29(m,m), A30(m,m)
DO 100 i = 1, m
  DO 100 j = 1, m
1   A01(i,j) = A14(i,j) + A14(j,i) + A08(j,i) * A08(i,j)
2   A02(i,j) = A05(i,j) + A05(j,i) + A09(j,i) * A09(i,j)
3   A03(i,j) = A06(i,j) + A06(j,i) + A10(j,i) * A10(i,j)
4   A04(i,j) = A07(i,j) + A07(j,i) + A01(j,i) * A01(i,j)
5   A05(i,j) = A18(i,j) + A18(j,i) + A02(j,i) * A02(i,j)
6   A06(i,j) = A09(i,j) + A09(j,i) + A03(j,i) * A03(i,j)
7   A07(i,j) = A10(i,j) + A10(j,i) + A04(j,i) * A04(i,j)
8   A08(i,j) = A01(i,j) + A01(j,i) + A05(j,i) * A05(i,j)
9   A09(i,j) = A12(i,j) + A12(j,i) + A06(j,i) * A06(i,j)
10  A10(i,j) = A03(i,j) + A03(j,i) + A07(j,i) * A07(i,j)
100 CONTINUE
DO 200 i = 1, m
  DO 200 j = 1, m
101 A11(i,j) = A24(i,j) + A24(j,i) + A18(j,i) * A18(i,j)
102 A12(i,j) = A15(i,j) + A15(j,i) + A19(j,i) * A19(i,j)
103 A13(i,j) = A16(i,j) + A16(j,i) + A20(j,i) * A20(i,j)
104 A14(i,j) = A17(i,j) + A17(j,i) + A11(j,i) * A11(i,j)
105 A15(i,j) = A28(i,j) + A28(j,i) + A12(j,i) * A12(i,j)
106 A16(i,j) = A19(i,j) + A19(j,i) + A13(j,i) * A13(i,j)
107 A17(i,j) = A20(i,j) + A20(j,i) + A14(j,i) * A14(i,j)
108 A18(i,j) = A11(i,j) + A11(j,i) + A15(j,i) * A15(i,j)
109 A19(i,j) = A22(i,j) + A22(j,i) + A16(j,i) * A16(i,j)
110 A20(i,j) = A13(i,j) + A13(j,i) + A17(j,i) * A17(i,j)
200 CONTINUE
DO 300 i = 1, m
  DO 300 j = 1, m
201 A21(i,j) = A04(i,j) + A04(j,i) + A28(j,i) * A28(i,j)
202 A22(i,j) = A25(i,j) + A25(j,i) + A29(j,i) * A29(i,j)
203 A23(i,j) = A26(i,j) + A26(j,i) + A30(j,i) * A30(i,j)
204 A24(i,j) = A27(i,j) + A27(j,i) + A21(j,i) * A21(i,j)
205 A25(i,j) = A08(i,j) + A08(j,i) + A22(j,i) * A22(i,j)
206 A26(i,j) = A29(i,j) + A29(j,i) + A23(j,i) * A23(i,j)
207 A27(i,j) = A30(i,j) + A30(j,i) + A24(j,i) * A24(i,j)
208 A28(i,j) = A21(i,j) + A21(j,i) + A25(j,i) * A25(i,j)
209 A29(i,j) = A02(i,j) + A02(j,i) + A26(j,i) * A26(i,j)
210 A30(i,j) = A23(i,j) + A23(j,i) + A27(j,i) * A27(i,j)
300 CONTINUE
END
