"""CLF-based discontinuous feedback synthesis and sampled-data ISS verification."""

from .clf import (AlphaTables, Clf, IssEnvelope, build_envelope, decay_factor,
                  estimate_alpha_tables)
from .core import (BLOWUP, COMPLETED, LEFT_DOMAIN, NUMERICAL_FAILURE,
                   ControlAffineSystem, FullyNonlinearSystem, Partition,
                   Signal, Status, Trajectory, constant_signal, lower_diameter,
                   make_partition, piecewise_constant_signal, sine_signal,
                   upper_diameter, write_trajectory_csv, zero_signal)
from .euler import (EulerStudy, IssCheck, RefinementSchedule, check_iss_euler,
                    euler_study, geometric_schedule)
from .feedback import (DecayViolation, Feedback, combined_feedback,
                       damping_feedback, k2, synthesize_k1, zero_feedback)
from .sampler import (ClosedLoop, DecreaseReport, GronwallReport, ProbeConfig,
                      RateGuard, admissible, affine_loop, decrease_check,
                      estimate_rate_guard, gronwall_gap, kappa_formula,
                      nonlinear_loop, sample_solve, sample_solve_batch)
from .verify import (Campaign, CampaignCase, CampaignReport,
                     adversarial_search, make_cases, run_campaign)

__version__ = "0.1.0"
