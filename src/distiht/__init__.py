"""Distributed sparse recovery by iterative hard thresholding.

Library and simulator for in-network recovery of sparse signals: IHT, a
spanning-tree distributed variant for static networks, a consensus-based
variant for time-varying networks, and a projected-subgradient baseline,
all with exact accounting of transmitted values, messages, broadcasts, and
synchronous time steps.
"""
from .model import (Problem, SensingSlice, LossInfo, generate_problem,
                    loss_value, loss_gradient, lipschitz_of_slice, loss_info,
                    save_problem, load_problem)
from .iht import (IhtConfig, IhtTrace, NumericFailure, hard_threshold, run_iht,
                  write_trace_csv)
from .graphs import (Graph, SpanningTree, TvSchedule, bfs_spanning_tree,
                     gen_barabasi_albert, gen_erdos_renyi, gen_geometric,
                     gen_tv_schedule, static_schedule,
                     validate_connectivity_window)
from .consensus import (BoundConstants, DiffusiveConsensus, metropolis_weights,
                        run_diffusive_consensus, bound_constants, schedule_eta)
from .diht import (Metrics, StopRule, DihtRun, convergecast_sum, run_diht,
                   write_metrics_csv)
from .cbdiht import (CbDihtRun, consensus_steps, run_cbdiht,
                     epsilon_series, default_l_tv)
from .subgradient import (SubgradConfig, SubgradTrace, AffineProjector,
                          run_subgradient)
from .harness import (ExperimentConfig, GraphSpec, Report, RunCell,
                      load_config, parse_config_text, run_experiment,
                      write_report)

__version__ = "0.1.0"
