from morbench.models.lstm import (
    BiLstmConfig,
    BiLstmModel,
    bilstm_forward,
    bilstm_train,
)
from morbench.models.mlp import MlpModel, mlp_forward, mlp_predict, mlp_train
from morbench.models.predictor import PredictorHandle, predict
from morbench.models.rmsprop import RmspropConfig, RmspropState, rmsprop_step
from morbench.models.serialize import load_model, save_model
from morbench.models.svm import SvmModel, svm_predict, svm_train

__all__ = [
    "BiLstmConfig",
    "BiLstmModel",
    "MlpModel",
    "PredictorHandle",
    "RmspropConfig",
    "RmspropState",
    "SvmModel",
    "bilstm_forward",
    "bilstm_train",
    "load_model",
    "mlp_forward",
    "mlp_predict",
    "mlp_train",
    "predict",
    "rmsprop_step",
    "save_model",
    "svm_predict",
    "svm_train",
]
