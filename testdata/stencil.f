{ The five-point relaxation, the Section 1 case where "dependent data
  only influence neighboring data": every affinity edge has a constant
  subscript offset, so component alignment co-locates U and W
  dimension-wise and all communication is nearest-neighbour. Nest S2
  copies W back into U for the next iteration. }
PROGRAM stencil
PARAM m
REAL U(m,m), W(m,m)
DO 10 k = 1, MAX_ITERATION
  DO 4 i = 2, m-1
    DO 4 j = 2, m-1
3     W(i,j) = ((U(i-1,j) + U(i+1,j)) + (U(i,j-1) + U(i,j+1))) / 4
4 CONTINUE
  DO 6 i = 2, m-1
    DO 6 j = 2, m-1
5     U(i,j) = W(i,j)
6 CONTINUE
10 CONTINUE
END
