#ifndef FIXTURE_BAD_H_
#define FIXTURE_BAD_H_

// datagen is serving code: its generators may reach core and below, but
// not the research harness (LDA, rule generation, baselines).
#include "src/core/corpus.h"
#include "src/topicmodel/hierarchy_builder.h"

#endif
