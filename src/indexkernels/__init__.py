"""Numerics for index-transform kernels: imaginary-order Bessel functions,
their Lebedev square/product combinations, index Whittaker, conical and
conjugate-parameter Gauss hypergeometric kernels, with machine-checkable
uniform bounds and asymptotic remainder bounds."""

from .config import Config, get as get_config
from .errors import (DomainError, NonconvergenceError, NumericalFailureError,
                     OverflowGuardError, PoleError, PrecisionLossError)

from .special import (binet_r, gamma_c, gamma_via_binet, hyp1f1, hyp1f2,
                      hyp2f1, hyp2f1_term2, ln_gamma, pochhammer)
from .bessel import (KernelValue, bessel_i, bessel_j, bessel_k_real,
                     k_index, k_itau_quad, k_itau_series)
from .quadrature import (QuadResult, mehler_fock_quad, olevskii_quad,
                         product_kernel_quad, whittaker_quad)
from .kernels import (EvalResult, ExpansionReport, KernelPoint, conical_p,
                      k_squared_direct, olevskii_decay_slopes,
                      olevskii_direct, olevskii_main, product_kernel_direct,
                      thm1_main, thm1_remainder_bound,
                      thm1_remainder_explicit, thm1_report,
                      thm2_main_and_bound, thm3_main_and_bound,
                      thm4_main_and_bound, whittaker_direct)
from .kernels import eval as eval_kernel
from .bounds import (BoundReport, bound_kl_rhs, bound_kummer_rhs,
                     bound_binet_rhs, bound_mehler_fock_rhs,
                     bound_olevskii_rhs, bound_product_rhs,
                     bound_whittaker_rhs, evaluate_bound,
                     fit_lebedev_constants)

__version__ = "0.1.0"
