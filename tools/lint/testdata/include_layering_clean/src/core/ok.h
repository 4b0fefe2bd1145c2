#ifndef FIXTURE_OK_H_
#define FIXTURE_OK_H_

// core may reach every module below it, and itself.
#include "src/common/status.h"
#include "src/core/other.h"
#include "src/entity/entity.h"
#include "src/index/union_find.h"
#include "src/ontology/ontology.h"
#include "src/rules/rule.h"
#include "src/sim/similarity.h"
#include "src/text/tokenizer.h"

#endif
