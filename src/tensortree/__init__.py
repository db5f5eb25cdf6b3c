"""Latent tree recovery over discrete variables via nuclear-norm quartet tests."""

__version__ = "0.1.0"

from .exceptions import (ModelError, NumericalError, ParseError,  # noqa: F401
                         TensorTreeError)
from .tensors import (JointTensor4, QuartetRelation, khatri_rao,  # noqa: F401
                      kronecker, nuclear_norm, numerical_rank, spectral, unfold)
from .model import (LatentTree, SampleSet, TreeParameters,  # noqa: F401
                    empirical_pairwise, empirical_pairwise_stack,
                    empirical_quartet_tensor, exact_quartet_distribution,
                    pairwise_distribution, quartet_tree, sample)
from .resolvers import (QuartetVerdict, resolve_nuclear,  # noqa: F401
                        resolve_oracle, resolve_spectral_k)
from .builder import BuildTrace, build_tree, choose_balanced_root  # noqa: F401
from .nj import additive_distance, distance_matrix, neighbor_join  # noqa: F401
from .metrics import (bipartitions, from_newick, robinson_foulds,  # noqa: F401
                      to_newick)
from .bench import (QuartetExperimentConfig, QuartetModel,  # noqa: F401
                    RecoveryDiagnostics, ResultTable, TreeExperimentConfig,
                    diagnostics, parameterize, perturbed_cpt,
                    random_quartet_model, random_topology, random_tree_model,
                    run_quartet_experiment, run_tree_experiment)
from .modelfile import read_model, write_model  # noqa: F401
