{ Matrix multiplication A = B * C, the Section 2.1 example whose
  layouts under Cannon's algorithm are the rotated distributions of
  Fig 1 (b) and (c). }
PROGRAM matmul
PARAM m
REAL A(m,m), B(m,m), C(m,m)
DO 4 i = 1, m
  DO 4 j = 1, m
    DO 4 k = 1, m
3     A(i,j) = A(i,j) + B(i,k) * C(k,j)
4 CONTINUE
END
