#include "src/ontology/builtin.h"

namespace dime {

const std::vector<ResearchArea>& ResearchAreas() {
  static const auto& kAreas = *new std::vector<ResearchArea>{
      {"Computer Science",
       "Database",
       {"SIGMOD", "VLDB", "ICDE", "PODS", "EDBT", "CIKM", "TODS", "VLDB Journal"},
       {"query", "index", "transaction", "join", "schema", "sql", "tuple",
        "relational", "database", "cleaning", "integration", "crowdsourcing",
        "deduplication", "olap", "warehouse"}},
      {"Computer Science",
       "System",
       {"ICPADS", "SOSP", "OSDI", "EuroSys", "ATC", "FAST", "NSDI"},
       {"operating", "kernel", "distributed", "filesystem", "scheduler",
        "virtualization", "cluster", "parallel", "placement", "replication",
        "consistency", "latency", "throughput", "cache", "storage"}},
      {"Computer Science",
       "Data Mining",
       {"KDD", "ICDM", "WSDM", "SDM", "PKDD"},
       {"mining", "pattern", "frequent", "outlier", "anomaly", "stream",
        "graph", "community", "itemset", "association", "clustering",
        "classification", "embedding", "recommendation", "prediction"}},
      {"Computer Science",
       "Artificial Intelligence",
       {"AAAI", "IJCAI", "NeurIPS", "ICML", "UAI"},
       {"learning", "neural", "network", "reinforcement", "bayesian",
        "inference", "agent", "planning", "representation", "optimization",
        "gradient", "supervised", "generative", "probabilistic", "model"}},
      {"Computer Science",
       "Natural Language Processing",
       {"ACL", "EMNLP", "NAACL", "COLING", "EACL"},
       {"language", "translation", "parsing", "sentiment", "corpus",
        "semantic", "syntactic", "entity", "discourse", "summarization",
        "dialogue", "lexical", "topic", "word", "text"}},
      {"Computer Science",
       "Information Retrieval",
       {"SIGIR", "WWW", "ECIR", "TREC"},
       {"retrieval", "ranking", "search", "relevance", "web", "document",
        "indexing", "crawler", "click", "personalization", "news",
        "social", "feedback", "evaluation", "snippet"}},
      {"Computer Science",
       "Computer Vision",
       {"CVPR", "ICCV", "ECCV", "BMVC"},
       {"image", "vision", "segmentation", "detection", "recognition",
        "tracking", "stereo", "pixel", "convolutional", "scene", "pose",
        "optical", "video", "depth", "feature"}},
      {"Computer Science",
       "Theory",
       {"STOC", "FOCS", "SODA", "ICALP"},
       {"complexity", "approximation", "algorithm", "bound", "hardness",
        "randomized", "combinatorial", "polynomial", "proof", "lattice",
        "sampling", "streaming", "sketch", "lower", "upper"}},
      {"Chemical Sciences",
       "Chemical Sciences (general)",
       {"RSC Advances", "Chemical Science", "ACS Omega", "Chem Comm"},
       {"oxidative", "desulfurization", "polyethylene", "glycol", "catalyst",
        "synthesis", "reaction", "solvent", "extraction", "oxidation",
        "compound", "molecular", "yield", "aqueous", "ionic"}},
      {"Chemical Sciences",
       "Organic Chemistry",
       {"Journal of Organic Chemistry", "Organic Letters", "Tetrahedron"},
       {"organic", "alkene", "amine", "carbonyl", "stereoselective",
        "cyclization", "ligand", "substituent", "aryl", "ester",
        "asymmetric", "enantioselective", "bond", "ring", "acid"}},
      {"Chemical Sciences",
       "Analytical Chemistry",
       {"Anal Chem", "Talanta", "Analyst"},
       {"spectrometry", "chromatography", "detection", "assay", "sensor",
        "electrochemical", "fluorescence", "sample", "trace", "calibration",
        "quantification", "electrode", "mass", "spectroscopy", "analyte"}},
      {"Physics & Mathematics",
       "Condensed Matter Physics",
       {"Physical Review B", "Nature Physics", "PRL"},
       {"quantum", "lattice", "superconductivity", "magnetic", "phonon",
        "electron", "spin", "crystal", "topological", "insulator",
        "temperature", "phase", "transition", "fermion", "band"}},
      {"Physics & Mathematics",
       "Applied Mathematics",
       {"SIAM Journal", "Applied Mathematics Letters", "JCAM"},
       {"equation", "differential", "numerical", "convergence", "stability",
        "operator", "nonlinear", "boundary", "finite", "element",
        "solution", "estimate", "asymptotic", "spectral", "iterative"}},
      {"Life Sciences & Earth Sciences",
       "Bioinformatics",
       {"Oxford Bioinformatics", "Genome Research", "BMC Bioinformatics"},
       {"gene", "genome", "protein", "sequence", "expression", "alignment",
        "variant", "transcriptome", "annotation", "phylogenetic", "cell",
        "regulatory", "pathway", "mutation", "sequencing"}},
      {"Life Sciences & Earth Sciences",
       "Environmental Sciences",
       {"Environmental Science & Technology", "Water Research"},
       {"water", "soil", "pollution", "emission", "climate", "carbon",
        "nitrogen", "treatment", "wastewater", "ecosystem", "degradation",
        "contaminant", "atmospheric", "sediment", "toxicity"}},
      {"Social Sciences",
       "Economics",
       {"American Economic Review", "Econometrica", "QJE"},
       {"market", "price", "equilibrium", "auction", "incentive", "policy",
        "welfare", "labor", "trade", "demand", "supply", "consumer",
        "taxation", "growth", "inequality"}},
  };
  return kAreas;
}

namespace {

Ontology BuildVenueOntology() {
  Ontology tree;
  int root = tree.AddRoot("Venue");
  std::vector<std::pair<std::string, int>> fields;  // field name -> node id
  for (const ResearchArea& area : ResearchAreas()) {
    int field_node = kNoNode;
    for (const auto& [name, id] : fields) {
      if (name == area.field) {
        field_node = id;
        break;
      }
    }
    if (field_node == kNoNode) {
      field_node = tree.AddNode(area.field, root);
      fields.emplace_back(area.field, field_node);
    }
    int sub_node = tree.AddNode(area.subfield, field_node);
    for (const std::string& venue : area.venues) {
      tree.AddNode(venue, sub_node);
    }
    for (const std::string& keyword : area.keywords) {
      tree.AddKeyword(keyword, sub_node);
    }
  }
  return tree;
}

}  // namespace

const std::shared_ptr<const Ontology>& VenueOntology() {
  static const auto& kTree = *new std::shared_ptr<const Ontology>(
      std::make_shared<const Ontology>(BuildVenueOntology()));
  return kTree;
}

Ontology BuildFig4Ontology() {
  Ontology tree;
  int root = tree.AddRoot("Venue");
  int cs = tree.AddNode("Computer Science", root);
  int chem = tree.AddNode("Chemical Sciences", root);
  int db = tree.AddNode("Database", cs);
  int sys = tree.AddNode("System", cs);
  int chem_gen = tree.AddNode("Chemical Sciences (general)", chem);
  tree.AddNode("SIGMOD", db);
  tree.AddNode("VLDB", db);
  tree.AddNode("ICDE", db);
  tree.AddNode("ICPADS", sys);
  tree.AddNode("SOSP", sys);
  tree.AddNode("RSC Advances", chem_gen);
  return tree;
}

}  // namespace dime
