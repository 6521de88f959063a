"""chunkrec: streaming chunk-synchronous transducer on a numpy autodiff core."""

from .autodiff import Tensor, check_gradients, no_grad
from .chunking import (ChunkGeometry, StreamBuffer, chunk_latency_ms, chunk_spans,
                       effective_latency_ms, left_context_mask, num_chunks)
from .checkpoint import load_checkpoint, save_checkpoint
from .decoding import (BeamConfig, Hypothesis, StreamSession, beam_decode, cer,
                       edit_distance, greedy_decode, stream_decode)
from .lattice import (backward_pass, diagonal_identity_check, enumerate_paths,
                      forward_pass, lattice_grad, lattice_nll)
from .model import ChunkTransducerModel, ModelConfig, Vocabulary
from .training import (Adam, SyntheticTaskSpec, TrainConfig, gen_synthetic,
                       noam_lr, train, train_step)

__version__ = "0.1.0"
