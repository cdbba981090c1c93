"""Desk-scale visual question answering lab.

A small numpy-based stack for studying how much a VQA model leans on answer
priors: a tensor library with reverse-mode autodiff, block-term bilinear
fusion, a language-only and a visually grounded question encoder, a synthetic
changing-priors benchmark, and the training/evaluation harness that compares
the two encoders under distribution shift.
"""

from .data import DataConfig, DatasetSplit, SyntheticDataset, generate_dataset
from .encoder import (EmbeddingTable, GruParams, embed, embedding_table_init,
                      encode_questions_baseline, gru_cell, gru_params_init)
from .evaluate import EvalReport, evaluate_split, summarize_predictions
from .fusion import BlockFusionParams, block_fuse, block_params_init
from .grounding import (VgwParams, encode_question_vgqe, encode_questions_vgqe,
                        grounded_words, vgw_attention, vgw_params_init)
from .model import (ModelConfig, ModelParams, count_parameters, forward_batch,
                    init_model, load_checkpoint, save_checkpoint)
from .tensor import Tensor, backward, grad_check, recording
from .train import (AdamWState, ScheduleConfig, TrainConfig, adamw_step,
                    clip_grad_norm, cross_entropy_rows, lr_at_epoch, train)

__version__ = "0.1.0"
