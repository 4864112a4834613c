"""Time-series representation models: self-supervised pretraining of a
CNN-plus-attention encoder stack, task fine-tuning with selective gradient
freezing, and attention-based explainability. Pure numpy, desk scale."""

from .errors import (
    TsrmError,
    ConfigError,
    DataError,
    NumericsError,
    CheckpointError,
    MissingCheckpointError,
    CorruptCheckpointError,
    CorruptConfigError,
    ShapeMismatchError,
    UnsupportedVersionError,
)
from .autodiff import Tensor, Parameter, Adam
from .attention import entmax15, reduce_map
from .model import (
    BranchSpec,
    ForwardTrace,
    ModelConfig,
    TsrmModel,
    load_checkpoint,
    parameter_count_formula,
    save_checkpoint,
)
from .pretraining import (
    LossBreakdown,
    PretrainBatch,
    build_pretrain_batch,
    generate_mask,
    make_invalid_candidate,
    pretrain_loss,
)
from .finetune import (
    TaskSpec,
    evaluate_task,
    finetune_loss,
    prepare_finetune,
)
from .data import (
    DatasetSpec,
    NormStats,
    WindowedDataset,
    load_csv,
    normalize,
    synth_dataset,
    window,
)
from .trainer import (
    FinetuneObjective,
    PretrainObjective,
    TrainConfig,
    train,
)
from .explain import backmap, backmapped_layers, export_attention

__version__ = "0.1.0"
