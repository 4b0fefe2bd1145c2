// repro is the research harness: it may reach the baselines, rule
// generation, LDA, the generators and every serving module.
#include "src/baselines/cr.h"
#include "src/core/dime.h"
#include "src/datagen/presets.h"
#include "src/repro/experiments.h"
#include "src/rulegen/candidates.h"
#include "src/server/service.h"
#include "src/topicmodel/lda.h"
