#include "analytic/link_coefficients.hpp"

namespace gnoc {

int Eq2CoefficientSouth(int n, int i) { return n * i; }
int Eq2CoefficientNorth(int n, int i) { return n * (i - 1); }
int Eq2CoefficientEast(int n, int j) { return j * (n - j); }
int Eq2CoefficientWest(int n, int j) { return (n - j + 1) * (j - 1); }

}  // namespace gnoc
