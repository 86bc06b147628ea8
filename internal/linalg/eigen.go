package linalg

import "math"

// PrincipalCurvatures returns (g1, g2) from the fitted quadratic
// coefficients exactly as in paper Eqns 12 and 13:
//
//	g1 = a + c − √((a−c)² + b²)
//	g2 = a + c + √((a−c)² + b²)
//
// This is the paper's scaled variant, kept verbatim, not the eigenvalues
// of the patch's shape operator {{2a, b}, {b, 2c}}.
func PrincipalCurvatures(a, b, c float64) (g1, g2 float64) {
	d := math.Sqrt((a-c)*(a-c) + b*b)
	return a + c - d, a + c + d
}
